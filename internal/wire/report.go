// Report conversions between the wire schema and the in-process detector
// types. The wire schema mirrors detector.Race/detector.Stats with stable
// JSON field names instead of marshaling the internal structs directly, so
// a detector-side refactor cannot silently change the protocol.
package wire

import (
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/fasttrack"
	"repro/internal/pipeline"
	"repro/internal/vc"
)

// FromResult converts a merged pipeline result into the wire report.
func FromResult(res pipeline.Result) Report {
	out := Report{Events: res.Events}
	out.Races = make([]ReportRace, 0, len(res.Races))
	for i, x := range res.Races {
		rr := ReportRace{
			Kind:    uint8(x.Kind),
			Addr:    x.Addr,
			Size:    x.Size,
			Tid:     int32(x.Tid),
			PC:      uint32(x.PC),
			PrevTid: int32(x.PrevTid),
			PrevPC:  uint32(x.PrevPC),
		}
		if i < len(res.Provenance) {
			p := res.Provenance[i]
			rr.Prov = &p
		}
		out.Races = append(out.Races, rr)
	}
	st := res.Stats
	out.Stats = ReportStats{
		Accesses:           st.Accesses,
		SameEpoch:          st.SameEpoch,
		NonShared:          st.NonShared,
		HashPeakBytes:      st.HashPeakBytes,
		VCPeakBytes:        st.VCPeakBytes,
		BitmapPeakBytes:    st.BitmapPeakBytes,
		TotalPeakBytes:     st.TotalPeakBytes,
		Races:              st.Races,
		Suppressed:         st.Suppressed,
		SharingComparisons: st.SharingComparisons,
		NodesPeak:          st.Plane.NodesPeak,
		AvgSharing:         st.Plane.AvgSharing(),
		NodeAllocs:         st.Plane.NodeAllocs,
		LocCreations:       st.Plane.LocCreations,
		Merges:             st.Plane.Merges,
		Splits:             st.Plane.Splits,
	}
	return out
}

// DetectorRaces reconstructs the detector-typed race list, so a remote
// report flows through the same race.Report filling code as a local run.
func (r Report) DetectorRaces() []detector.Race {
	out := make([]detector.Race, 0, len(r.Races))
	for _, x := range r.Races {
		out = append(out, detector.Race{
			Kind:    fasttrack.RaceKind(x.Kind),
			Addr:    x.Addr,
			Size:    x.Size,
			Tid:     vc.TID(x.Tid),
			PC:      event.PC(x.PC),
			PrevTid: vc.TID(x.PrevTid),
			PrevPC:  event.PC(x.PrevPC),
		})
	}
	return out
}

// DetectorProvs reconstructs the provenance list, index-aligned with
// DetectorRaces. Nil when no race carries provenance (pre-provenance
// server, or a session that did not negotiate it); races whose provenance
// was lost (e.g. merged in from an older member) get a zero record.
func (r Report) DetectorProvs() []detector.Provenance {
	any := false
	for _, x := range r.Races {
		if x.Prov != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	out := make([]detector.Provenance, len(r.Races))
	for i, x := range r.Races {
		if x.Prov != nil {
			out[i] = *x.Prov
		}
	}
	return out
}

// DetectorStats reconstructs the detector-typed statistics. Only the
// fields the unified race.Report consumes are populated (the wire report
// is a summary, not a full dyngran.Stats replica); AvgSharing round-trips
// exactly because dyngran's ≥1 clamp is idempotent.
func (r Report) DetectorStats() detector.Stats {
	s := r.Stats
	var st detector.Stats
	st.Accesses = s.Accesses
	st.SameEpoch = s.SameEpoch
	st.NonShared = s.NonShared
	st.HashPeakBytes = s.HashPeakBytes
	st.VCPeakBytes = s.VCPeakBytes
	st.BitmapPeakBytes = s.BitmapPeakBytes
	st.TotalPeakBytes = s.TotalPeakBytes
	st.Races = s.Races
	st.Suppressed = s.Suppressed
	st.SharingComparisons = s.SharingComparisons
	st.Plane.NodesPeak = s.NodesPeak
	st.Plane.AvgSharingAtPeak = s.AvgSharing
	st.Plane.NodeAllocs = s.NodeAllocs
	st.Plane.LocCreations = s.LocCreations
	st.Plane.Merges = s.Merges
	st.Plane.Splits = s.Splits
	return st
}
