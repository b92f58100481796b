// Race provenance: a bounded flight recorder that explains each verdict.
// When Config.Provenance is set, the detector keeps a per-shard ring of
// recent (post-filter) accesses and sync edges, and every reported race
// carries a Provenance record: both conflicting accesses, the epoch/clock
// comparison that failed, the racing node's granularity-plane state
// transitions (Figure 2 path), and the last few sync edges the shard saw
// before the verdict. Disabled, the recorder is a nil pointer and the hot
// path pays exactly one predictable branch per site — the same
// disabled-is-free contract as the telemetry layer, pinned by
// BenchmarkProvenanceOverhead and the ZeroAlloc guards.
package detector

import (
	"fmt"
	"strings"

	"repro/internal/dyngran"
	"repro/internal/event"
	"repro/internal/vc"
)

const (
	// provAccessRing bounds the recent-access ring per detector shard.
	provAccessRing = 512
	// provSyncRing bounds the recent-sync-edge ring ("last K sync edges").
	provSyncRing = 8
)

// ProvAccess is one endpoint of a reported race.
type ProvAccess struct {
	Tid  uint32 `json:"tid"`
	PC   uint64 `json:"pc"`
	Addr uint64 `json:"addr"`
	Size uint32 `json:"size"`
	// Seq is the event's global sequence number when the access is still
	// resident in the flight-recorder ring (0 = evicted / unknown).
	Seq uint64 `json:"seq,omitempty"`
	Op  string `json:"op,omitempty"` // "read" or "write"
}

// ProvComparison is the happens-before comparison that failed: the
// earlier access's epoch clock was not ≤ the current thread's view of
// the earlier thread.
type ProvComparison struct {
	// Plane names the shadow plane holding the earlier access's clock
	// ("write" or "read").
	Plane string `json:"plane"`
	// PrevTid is the earlier access's thread.
	PrevTid uint32 `json:"prev_tid"`
	// PrevClock is the clock component of the earlier access's epoch.
	PrevClock uint64 `json:"prev_clock"`
	// Observed is the current thread's vector-clock entry for PrevTid at
	// check time; the race verdict is exactly PrevClock > Observed.
	Observed uint64 `json:"observed_clock"`
}

// ProvSyncEdge is one recent synchronization event.
type ProvSyncEdge struct {
	Op  string `json:"op"`
	Tid uint32 `json:"tid"`
	Aux uint64 `json:"aux,omitempty"`
	Seq uint64 `json:"seq,omitempty"`
}

// Provenance is the evidence trail of one reported race. It rides next to
// its Race (same index) through the pipeline merge, the wire report and
// wire.MergeReports, so cluster verdicts stay explainable end-to-end.
type Provenance struct {
	Kind       string         `json:"kind"`
	Current    ProvAccess     `json:"current"`
	Previous   ProvAccess     `json:"previous"`
	Comparison ProvComparison `json:"comparison"`
	// Transitions is the racing node's Figure 2 state path (oldest
	// first), as recorded at the moment the comparison failed.
	Transitions []string `json:"transitions,omitempty"`
	// SyncEdges is the shard's last-K sync-edge window before the verdict.
	SyncEdges []ProvSyncEdge `json:"sync_edges,omitempty"`
}

// String renders the record as an indented, human-readable explanation —
// the form racedetect -v and racectl print.
func (p Provenance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s race: T%d %s pc=%#x [%#x,+%d) seq=%d  vs  T%d %s pc=%#x [%#x,+%d) seq=%d\n",
		p.Kind,
		p.Current.Tid, p.Current.Op, p.Current.PC, p.Current.Addr, p.Current.Size, p.Current.Seq,
		p.Previous.Tid, p.Previous.Op, p.Previous.PC, p.Previous.Addr, p.Previous.Size, p.Previous.Seq)
	fmt.Fprintf(&b, "  failed comparison: %s-plane epoch %d@T%d > view[T%d]=%d\n",
		p.Comparison.Plane, p.Comparison.PrevClock, p.Comparison.PrevTid,
		p.Comparison.PrevTid, p.Comparison.Observed)
	if len(p.Transitions) > 0 {
		fmt.Fprintf(&b, "  state path: %s\n", strings.Join(p.Transitions, " -> "))
	}
	if len(p.SyncEdges) > 0 {
		b.WriteString("  recent sync edges:")
		for _, e := range p.SyncEdges {
			fmt.Fprintf(&b, " %s(T%d,%#x)", e.Op, e.Tid, e.Aux)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// provAccessRec is one access-ring entry.
type provAccessRec struct {
	tid    vc.TID
	pc     event.PC
	lo, hi uint64
	seq    uint64
}

// flightRecorder is the per-shard bounded recorder. Single-owner, like
// the detector itself; all storage is inline arrays, so steady-state
// recording never allocates.
type flightRecorder struct {
	// seq is the current event's sequence number: supplied by the
	// pipeline router via SetEventSeq (global stream order), or a local
	// per-shard ordinal for serially driven detectors.
	seq    uint64
	extSeq bool

	acc    [provAccessRing]provAccessRec
	accPos int
	accLen int

	syncs   [provSyncRing]ProvSyncEdge
	syncPos int
	syncLen int

	// cmp and transitions hold the most recent failed comparison,
	// captured at the check site (the node's clock may be overwritten
	// before report runs) and consumed by the next appended race.
	cmp         ProvComparison
	transitions []string
}

// tick advances the local event ordinal (no-op once the pipeline supplies
// global sequence numbers).
func (f *flightRecorder) tick() {
	if !f.extSeq {
		f.seq++
	}
}

// noteAccess records one post-filter access into the ring.
func (f *flightRecorder) noteAccess(tid vc.TID, pc event.PC, lo, hi uint64) {
	f.acc[f.accPos] = provAccessRec{tid: tid, pc: pc, lo: lo, hi: hi, seq: f.seq}
	f.accPos = (f.accPos + 1) % provAccessRing
	if f.accLen < provAccessRing {
		f.accLen++
	}
}

// lookupAccess finds the most recent ring entry by tid overlapping
// [lo, hi) — the best-effort recovery of the earlier access's footprint
// and sequence number.
func (f *flightRecorder) lookupAccess(tid vc.TID, lo, hi uint64) (provAccessRec, bool) {
	for i := 1; i <= f.accLen; i++ {
		r := f.acc[(f.accPos-i+provAccessRing)%provAccessRing]
		if r.tid == tid && r.lo < hi && r.hi > lo {
			return r, true
		}
	}
	return provAccessRec{}, false
}

// noteSync records one sync edge (op is a constant string; no allocation).
func (f *flightRecorder) noteSync(op string, tid vc.TID, aux uint64) {
	f.tick()
	f.syncs[f.syncPos] = ProvSyncEdge{Op: op, Tid: uint32(tid), Aux: aux, Seq: f.seq}
	f.syncPos = (f.syncPos + 1) % provSyncRing
	if f.syncLen < provSyncRing {
		f.syncLen++
	}
}

// recentSyncs copies the ring oldest-first (race-report path only).
func (f *flightRecorder) recentSyncs() []ProvSyncEdge {
	if f.syncLen == 0 {
		return nil
	}
	out := make([]ProvSyncEdge, f.syncLen)
	for i := 0; i < f.syncLen; i++ {
		out[f.syncLen-1-i] = f.syncs[(f.syncPos-1-i+provSyncRing)%provSyncRing]
	}
	return out
}

// captureCmp stashes the failed comparison and the racing node's state
// path at the moment the check fails. Runs only on the race path, so the
// transition-slice allocation is off the steady state.
func (f *flightRecorder) captureCmp(plane string, prevTid vc.TID, prevClock, observed uint64, n *dyngran.Node) {
	f.cmp = ProvComparison{
		Plane: plane, PrevTid: uint32(prevTid),
		PrevClock: prevClock, Observed: observed,
	}
	f.transitions = nil
	if n != nil {
		hist := n.StateHistory()
		f.transitions = make([]string, len(hist))
		for i, s := range hist {
			f.transitions[i] = s.String()
		}
	}
}

// noteSync is the detector-level hook every clock-changing sync method
// calls first: it empties the thread-clock cache (see Detector.now) and,
// when provenance is enabled, records the edge.
func (d *Detector) noteSync(op string, tid vc.TID, aux uint64) {
	d.nowTid = vc.NoTID
	if d.prov != nil {
		d.prov.noteSync(op, tid, aux)
	}
}

// SetEventSeq pins the recorder's event sequence to the router's global
// stream ordinal — the pipeline calls it before applying each record, so
// provenance seq numbers agree across shards (and across cluster
// members). No-op when provenance is disabled.
func (d *Detector) SetEventSeq(seq uint64) {
	if d.prov != nil {
		d.prov.seq = seq
		d.prov.extSeq = true
	}
}

// Provs returns the provenance records, index-aligned with Races().
// Empty unless Config.Provenance was set.
func (d *Detector) Provs() []Provenance { return d.provs }

// provOps maps a race kind to the (current, previous) access operations.
func provOps(kind string) (cur, prev string) {
	switch kind {
	case "write-write":
		return "write", "write"
	case "read-write":
		return "write", "read"
	case "write-read":
		return "read", "write"
	}
	return "", ""
}

// appendProvenance builds and stores the record for the race just
// appended to d.races. Called from report() on the success path only.
func (d *Detector) appendProvenance(r Race) {
	f := d.prov
	curOp, prevOp := provOps(r.Kind.String())
	p := Provenance{
		Kind: r.Kind.String(),
		Current: ProvAccess{
			Tid: uint32(r.Tid), PC: uint64(r.PC),
			Addr: r.Addr, Size: r.Size, Seq: f.seq, Op: curOp,
		},
		Previous: ProvAccess{
			Tid: uint32(r.PrevTid), PC: uint64(r.PrevPC),
			Addr: r.Addr, Size: r.Size, Op: prevOp,
		},
		Comparison:  f.cmp,
		Transitions: f.transitions,
		SyncEdges:   f.recentSyncs(),
	}
	if rec, ok := f.lookupAccess(r.PrevTid, r.Addr, r.Addr+uint64(r.Size)); ok {
		p.Previous.Addr = rec.lo
		p.Previous.Size = uint32(rec.hi - rec.lo)
		p.Previous.Seq = rec.seq
	}
	f.transitions = nil // consumed; don't alias into a later record
	d.provs = append(d.provs, p)
}
