// Report merging for multi-server sessions. A cluster coordinator fans
// one event stream out across N racedetectd members (access events
// partitioned by shadow-block id, sync events broadcast), so each member
// produces a Report covering a disjoint slice of the address space. Merge
// folds those into the single deterministic Report an in-process run
// would have produced — the same role pipeline's shard merge plays inside
// one server, lifted to the fleet.
package wire

import "sort"

// MergeReports merges per-member reports from one logical session into a
// single deterministic Report. It is associative and commutative on
// disjoint shards: races are concatenated and canonically ordered (no
// member's sequence space survives the merge — per-member seq spaces are
// incomparable), integer statistics are summed exactly, and AvgSharing is
// the NodesPeak-weighted mean.
//
// Two sums deserve a note. Events and the sync-driven stats (and every
// Clock* byte figure) count each broadcast sync event once per member, so
// the merged values exceed the in-process figures by design; a coordinator
// that tracked the pre-fan-out stream overrides Accesses/NonShared/Events
// with its own router counts. LastSeq sums the members' drain watermarks,
// giving the total number of batch frames the cluster applied.
//
// MergeReports of zero reports is a zero Report; of one report, a copy
// with its races re-sorted into canonical order.
func MergeReports(reports ...Report) Report {
	var out Report
	n := 0
	for _, r := range reports {
		n += len(r.Races)
	}
	out.Races = make([]ReportRace, 0, n)
	for _, r := range reports {
		out.Races = append(out.Races, r.Races...)
		out.Events += r.Events
		out.LastSeq += r.LastSeq
		out.Stats = mergeStats(out.Stats, r.Stats)
	}
	SortRaces(out.Races)
	return out
}

// Merge returns the merge of r with others. Equivalent to
// MergeReports(append([]Report{r}, others...)...).
func (r Report) Merge(others ...Report) Report {
	all := make([]Report, 0, 1+len(others))
	all = append(all, r)
	all = append(all, others...)
	return MergeReports(all...)
}

// SortRaces orders races canonically: by address, kind, racing thread,
// PC, then previous-access thread/PC and size. The ordering depends only
// on race identity — never on which member (or shard, or arrival order)
// reported it — so any partition of the stream converges to the same
// byte-identical race list.
func SortRaces(rs []ReportRace) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.PrevTid != b.PrevTid {
			return a.PrevTid < b.PrevTid
		}
		if a.PrevPC != b.PrevPC {
			return a.PrevPC < b.PrevPC
		}
		return a.Size < b.Size
	})
}

func mergeStats(a, b ReportStats) ReportStats {
	// AvgSharing is a mean over shadow nodes; weight each member's
	// contribution by its node population so the merged figure matches
	// what a single detector over the union would report.
	wa, wb := float64(a.NodesPeak), float64(b.NodesPeak)
	if w := wa + wb; w > 0 {
		a.AvgSharing = (a.AvgSharing*wa + b.AvgSharing*wb) / w
	} else if b.AvgSharing > a.AvgSharing {
		a.AvgSharing = b.AvgSharing
	}

	a.Accesses += b.Accesses
	a.SameEpoch += b.SameEpoch
	a.NonShared += b.NonShared
	a.HashPeakBytes += b.HashPeakBytes
	a.VCPeakBytes += b.VCPeakBytes
	a.BitmapPeakBytes += b.BitmapPeakBytes
	a.TotalPeakBytes += b.TotalPeakBytes
	a.Races += b.Races
	a.Suppressed += b.Suppressed
	a.SharingComparisons += b.SharingComparisons
	a.NodesPeak += b.NodesPeak
	a.NodeAllocs += b.NodeAllocs
	a.LocCreations += b.LocCreations
	a.Merges += b.Merges
	a.Splits += b.Splits
	a.ShedRecords += b.ShedRecords
	return a
}
