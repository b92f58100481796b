// Package detector is the race-detection front end: an event.Sink that
// drives the FastTrack algorithm (internal/fasttrack) over shadow planes
// (internal/dyngran) at a configurable detection granularity. It implements
// the instrumentation path of Figure 3 of the paper:
//
//	void memoryread(addr, size, tid):
//	    if nonshared(addr) or sameepoch(tid, addr): return
//	    L = findreadaccess(addr)
//	    if L == nil:            // first access
//	        L = insertread(addr, size); sharefirstepoch(L); L.state = Init
//	    else if L.state == Init: // second epoch access
//	        split(L); sharesecondepoch(L); L.state = Shared or Private
//	    if racefound(addr): splitandsetrace(L)
//	    insertepochaccess(tid, addr)
//
// with the same-epoch test served by per-thread bitmaps
// (internal/epochbitmap) that reset at each lock release.
//
// Three granularities are supported. Byte tracks each access footprint
// exactly; Word rounds footprints to 4-byte boundaries (merging and masking
// neighbouring locations within a word); Dynamic starts at byte granularity
// and lets neighbouring locations share one clock under the Figure 2 state
// machine. Byte and Word are the fixed-granularity baselines of Table 1;
// they reuse the same node machinery with sharing disabled, so all modes
// are measured over identical code.
package detector

import (
	"fmt"
	"math"

	"repro/internal/dyngran"
	"repro/internal/epochbitmap"
	"repro/internal/event"
	"repro/internal/fasttrack"
	"repro/internal/shadow"
	"repro/internal/vc"
)

// Granularity selects the detection unit.
type Granularity uint8

const (
	// Byte tracks locations at access-footprint granularity (the paper's
	// "byte granularity": detection unit as fine as a single byte).
	Byte Granularity = iota
	// Word masks footprints to 4-byte boundaries.
	Word
	// Dynamic starts at byte granularity and shares clocks between
	// neighbouring locations per the vector-clock state machine.
	Dynamic
)

func (g Granularity) String() string {
	switch g {
	case Byte:
		return "byte"
	case Word:
		return "word"
	case Dynamic:
		return "dynamic"
	default:
		return "?"
	}
}

// Config configures a Detector.
type Config struct {
	// Granularity selects the detection unit.
	Granularity Granularity
	// NoInitState disables the Init state (Table 5 ablation): the sharing
	// decision is made once, at the first access, and is final.
	NoInitState bool
	// NoInitSharing disables the temporary first-epoch sharing while
	// keeping the Init state (Table 5 ablation): locations hold private
	// clocks during their first epoch and decide sharing at the second
	// epoch access.
	NoInitSharing bool
	// WriteGuidedReads enables the future-work extension of Section VII:
	// the read-plane sharing decision consults the write plane first and
	// skips the read-clock comparison when the write clocks already ruled
	// sharing out.
	WriteGuidedReads bool
	// ReadReset enables FastTrack's write-exclusive optimization: after a
	// write that dominates every recorded read of its footprint, inflated
	// read vectors in the range are reset to the empty epoch, reclaiming
	// their storage (the full FastTrack rule; the default keeps DJIT+'s
	// read history, which is equally precise but larger).
	ReadReset bool
	// ReshareInterval enables the other Section VII future-work extension
	// ("accommodate access behavior after the second epoch so that the
	// detection granularity can be changed more dynamically"): a Private
	// location re-runs the sharing decision after this many
	// distinct-epoch accesses. 0 keeps the paper's at-most-two-decisions
	// rule.
	ReshareInterval uint8
	// Suppress hides races whose code site belongs to one of these
	// modules (the paper suppresses libc and ld, as DRD does). Nil means
	// the default suppression set; use an empty non-nil slice for none.
	Suppress []event.Module

	// Provenance enables the race flight recorder (see provenance.go):
	// every reported race carries a Provenance record naming both
	// accesses, the failed epoch/clock comparison, the racing node's
	// state transitions and the last few sync edges. Disabled (the
	// default), the hot path pays one predictable branch per site.
	Provenance bool

	// Metrics is the telemetry instrument set the detector publishes its
	// counts to (see NewMetrics and Detector.Publish). Nil disables
	// publication. Sharded detectors may share one Metrics: all
	// instruments are atomic, and summed families stay consistent.
	Metrics *Metrics

	// Shards and Shard make the detector shard-constructible for the
	// parallel pipeline (internal/pipeline): when Shards > 1 the detector
	// owns only the shadow blocks b (b = addr >> shadow.BlockShift) with
	// b % Shards == Shard. The caller must route it exactly the memory
	// accesses of its blocks (split at block boundaries) plus every sync
	// event; the detector then restricts its shadow planes and epoch
	// bitmaps to that block subset and clamps range operations (Free) to
	// it. Shards == 0 or 1 means unsharded (the serial detector).
	Shards int
	Shard  int
}

// Sharded reports whether the configuration restricts the detector to a
// block subset.
func (c Config) Sharded() bool { return c.Shards > 1 }

// Owns reports whether addr falls in the configured block subset (always
// true for an unsharded detector).
func (c Config) Owns(addr uint64) bool {
	if !c.Sharded() {
		return true
	}
	return int(addr>>shadow.BlockShift%uint64(c.Shards)) == c.Shard
}

// DefaultSuppress is the default suppression set: the paper applies DRD-like
// suppression rules (libc, ld) and additionally suppresses the races DRD
// reports from inside the pthread library.
var DefaultSuppress = []event.Module{event.ModuleLibc, event.ModuleLd, event.ModulePthread}

// Race is one reported data race: the first race detected on a location.
type Race struct {
	Kind fasttrack.RaceKind
	// Addr and Size identify the accessed location (footprint).
	Addr uint64
	Size uint32
	// Tid and PC identify the access that completed the race.
	Tid vc.TID
	PC  event.PC
	// PrevTid and PrevPC identify the earlier conflicting access.
	PrevTid vc.TID
	PrevPC  event.PC
}

func (r Race) String() string {
	return fmt.Sprintf("%s race at %#x (%dB): thread %d at pc %#x vs thread %d at pc %#x",
		r.Kind, r.Addr, r.Size, r.Tid, uint32(r.PC), r.PrevTid, uint32(r.PrevPC))
}

// Stats aggregates everything the evaluation tables need from one run.
type Stats struct {
	// Accesses is the number of read/write events seen; SameEpoch is how
	// many the per-thread bitmaps filtered (Table 4); NonShared is how
	// many were stack accesses filtered by the Figure 3 first-line check.
	Accesses  uint64
	SameEpoch uint64
	NonShared uint64

	// Plane holds node counts, clock bytes, sharing and split counts
	// (Tables 2 and 3).
	Plane dyngran.Stats

	// HashPeakBytes, VCPeakBytes, BitmapPeakBytes are the three memory
	// components of Table 2; TotalPeakBytes is the peak of their sum.
	HashPeakBytes   int64
	VCPeakBytes     int64
	BitmapPeakBytes int64
	TotalPeakBytes  int64

	// Races is the number of reported races; Suppressed counts races
	// hidden by module suppression.
	Races      uint64
	Suppressed uint64

	// SharingComparisons counts clock comparisons made for sharing
	// decisions (the cost the write-guided extension reduces).
	SharingComparisons uint64

	// VCPoolHits/VCPoolMisses count vector-clock backing-array requests
	// served from (resp. missed by) the detector's size-classed clock
	// pool; VCInterns counts read vectors deduplicated through the intern
	// table. All zero when the memory layer's pooling is not wired (e.g.
	// a detector built before the pool existed, or non-FastTrack tools).
	VCPoolHits, VCPoolMisses uint64
	VCInterns                uint64
}

// Detector is the race detector; it implements event.Sink.
type Detector struct {
	cfg Config

	th    *fasttrack.Threads
	read  *dyngran.Plane
	write *dyngran.Plane

	bitmaps  []*epochbitmap.Bitmap
	suppress [8]bool
	// bitmapBytes is the retained storage of every bitmap in bitmaps, kept
	// as a running total the bitmaps add their chunk growth to. Chunks are
	// never freed, so it is also the bitmaps' peak.
	bitmapBytes int64

	// One-entry bitmap cache: event streams run many consecutive accesses
	// by the same thread (a scheduling quantum is 64 events), so the
	// per-access bitmap lookup almost always resolves to the previous
	// thread's bitmap. Bitmap pointers are stable, so the cache never needs
	// invalidation.
	lastTid vc.TID
	lastBM  *epochbitmap.Bitmap

	// Thread-clock cache: a thread's clock and epoch change only at sync
	// events, so the access path resolves them once per epoch rather than
	// once per access. noteSync empties the cache (nowTid = vc.NoTID) before
	// every clock-changing call, including ops of other threads, so the
	// cache never depends on which threads an op touches.
	nowTid   vc.TID
	nowClock *vc.VC
	nowEpoch vc.Epoch

	// racedLocs dedups reports across the read and write planes: one
	// location's first race is reported once even when both its read and
	// write shadow nodes go racy.
	racedLocs map[uint64]bool

	// met receives the detector's counts (nil = telemetry disabled). pub
	// is what has been added to it so far; the access path publishes once
	// the memory accesses counted, shared or not, reach pubAt, which stays
	// at its maximum while met is nil. reshares counts adaptive re-sharing
	// decisions, the one published count without a Stats field.
	met      *Metrics
	pub      published
	pubAt    uint64
	reshares uint64

	// vcs is the detector's size-classed vector-clock pool; every clock the
	// detector creates (thread/lock/barrier clocks, read-vector inflations,
	// copy-on-write splits) allocates and recycles through it. intern
	// deduplicates equal read vectors behind canonical shared arrays. Both
	// are single-owner: one detector = one goroutine = one pool.
	vcs    *vc.Pool
	intern *vc.Interner

	stats Stats
	races []Race

	// prov is the provenance flight recorder (nil unless enabled); provs
	// is index-aligned with races.
	prov  *flightRecorder
	provs []Provenance
}

// New returns a detector with the given configuration.
func New(cfg Config) *Detector {
	d := &Detector{
		cfg:       cfg,
		th:        fasttrack.NewThreads(),
		racedLocs: make(map[uint64]bool),
		lastTid:   vc.NoTID,
		nowTid:    vc.NoTID,
	}
	d.met = cfg.Metrics
	d.pubAt = math.MaxUint64
	if d.met != nil {
		d.pubAt = publishEvery
	}
	if cfg.Provenance {
		d.prov = &flightRecorder{}
	}
	d.vcs = vc.NewPool()
	d.intern = vc.NewInterner(d.vcs)
	d.th.SetPool(d.vcs)
	d.read = dyngran.NewPlane(dyngran.ReadPlane, &d.stats.Plane)
	d.write = dyngran.NewPlane(dyngran.WritePlane, &d.stats.Plane)
	d.read.SetPool(d.vcs)
	d.write.SetPool(d.vcs)
	sup := cfg.Suppress
	if sup == nil {
		sup = DefaultSuppress
	}
	for _, m := range sup {
		d.suppress[m] = true
	}
	return d
}

// Races returns the reported races in detection order.
func (d *Detector) Races() []Race { return d.races }

// Stats returns a snapshot of the run statistics with the memory components
// finalized. It publishes first, so once it returns the telemetry counters
// equal their Stats twins.
func (d *Detector) Stats() Stats {
	d.Publish()
	s := d.stats
	s.HashPeakBytes = d.read.Tab.PeakBytes() + d.write.Tab.PeakBytes()
	s.VCPeakBytes = s.Plane.VCBytesPeak + d.th.LockClockBytes()
	s.BitmapPeakBytes = d.bitmapBytes
	if s.TotalPeakBytes < s.HashPeakBytes+s.VCPeakBytes+s.BitmapPeakBytes {
		s.TotalPeakBytes = s.HashPeakBytes + s.VCPeakBytes + s.BitmapPeakBytes
	}
	s.VCPoolHits, s.VCPoolMisses = d.vcs.Stats()
	s.VCInterns = d.intern.Hits()
	return s
}

func (d *Detector) bitmap(t vc.TID) *epochbitmap.Bitmap {
	if t == d.lastTid {
		return d.lastBM
	}
	for int(t) >= len(d.bitmaps) {
		d.bitmaps = append(d.bitmaps, nil)
	}
	if d.bitmaps[t] == nil {
		d.bitmaps[t] = epochbitmap.New(&d.bitmapBytes)
	}
	d.lastTid, d.lastBM = t, d.bitmaps[t]
	return d.lastBM
}

// now returns tid's clock and current epoch through the thread-clock cache.
func (d *Detector) now(tid vc.TID) (*vc.VC, vc.Epoch) {
	if tid != d.nowTid {
		d.nowClock, d.nowEpoch = d.th.Now(tid)
		d.nowTid = tid
	}
	return d.nowClock, d.nowEpoch
}

// footprint computes the tracked address range of an access under the
// configured granularity.
func (d *Detector) footprint(addr uint64, size uint64) (uint64, uint64) {
	lo, hi := addr, addr+size
	if d.cfg.Granularity == Word {
		lo &^= 3
		hi = (hi + 3) &^ 3
	}
	return lo, hi
}

// trackTotal refreshes the running total-memory peak (Table 2's overhead
// total is the peak of the sum of the three components, which individual
// component peaks would overstate when they crest at different times).
// Every term is a running total, so the refresh costs O(1) per event.
func (d *Detector) trackTotal() {
	cur := d.read.Tab.Bytes() + d.write.Tab.Bytes() + d.stats.Plane.VCBytesCur + d.bitmapBytes
	if cur > d.stats.TotalPeakBytes {
		d.stats.TotalPeakBytes = cur
	}
}

// report emits the first race of a location unless suppressed.
func (d *Detector) report(kind fasttrack.RaceKind, lo, hi uint64, tid vc.TID, pc event.PC, prevTid vc.TID, prevPC event.PC) {
	if d.suppress[pc.Module()] || d.suppress[prevPC.Module()] {
		d.stats.Suppressed++
		return
	}
	if d.racedLocs[lo] {
		return // the location's first race was already reported
	}
	d.racedLocs[lo] = true
	d.stats.Races++
	r := Race{
		Kind: kind, Addr: lo, Size: uint32(hi - lo),
		Tid: tid, PC: pc, PrevTid: prevTid, PrevPC: prevPC,
	}
	d.races = append(d.races, r)
	if d.prov != nil {
		d.appendProvenance(r)
	}
}

// checkReadPlane scans the read plane in [lo, hi) for a recorded read not
// ordered before tc (a read-write race against the current write).
func (d *Detector) checkReadPlane(lo, hi uint64, tc *vc.VC) (vc.TID, event.PC, bool) {
	for cur := lo; cur < hi; {
		n, next := d.read.Tab.Run(cur, hi)
		if n != nil && !n.R.LEQ(tc) {
			raceTid := n.R.RacingTID(tc)
			if d.prov != nil {
				prev := uint64(n.R.E.Clock())
				if n.R.Shared() {
					prev = uint64(n.R.V.Get(raceTid))
				}
				d.prov.captureCmp("read", raceTid, prev, uint64(tc.Get(raceTid)), n)
			}
			return raceTid, n.PC, raceTid != vc.NoTID
		}
		cur = next
	}
	return vc.NoTID, 0, false
}

// Write processes a shared write (the memorywrite instrumentation path).
func (d *Detector) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if event.NonShared(addr) {
		d.stats.NonShared++
		d.maybePublish()
		return
	}
	d.stats.Accesses++
	d.maybePublish()
	if d.prov != nil {
		d.prov.tick()
	}
	lo, hi := d.footprint(addr, uint64(size))
	bm := d.bitmap(tid)
	if bm.Write(lo, hi) {
		d.stats.SameEpoch++
		return
	}
	if d.prov != nil {
		d.prov.noteAccess(tid, pc, lo, hi)
	}
	tc, e := d.now(tid)
	for cur := lo; cur < hi; {
		n, segHi := segment(d.write, cur, hi)
		d.writeSegment(cur, segHi, n, tid, tc, e, pc, bm)
		cur = segHi
	}
	if d.cfg.ReadReset {
		d.read.DeflateReads(lo, hi, tc)
	}
	d.trackTotal()
}

// writeSegment handles one maximal run of a write footprint that lies in a
// single write node (or in unshadowed memory when n is nil).
func (d *Detector) writeSegment(lo, hi uint64, n *dyngran.Node, tid vc.TID, tc *vc.VC, e vc.Epoch, pc event.PC, bm *epochbitmap.Bitmap) {
	p := d.write
	if n == nil {
		// First access of the location.
		d.stats.Plane.LocCreations++
		rTid, rPC, raced := d.checkReadPlane(lo, hi, tc)
		if !raced && d.firstEpochSharing() {
			if ext, ok := p.TryExtendLeft(lo, hi, e, nil); ok {
				ext.PC = pc
				return
			}
		}
		n = p.NewNode(lo, hi, dyngran.Init)
		n.W = e
		n.PC = pc
		if raced {
			n.SetState(dyngran.Race)
			n.Reported = true
			p.Tally.ToRace++
			d.report(fasttrack.ReadWrite, lo, hi, tid, pc, rTid, rPC)
			return
		}
		d.decideFirstAccess(p, n)
		return
	}

	switch n.State {
	case dyngran.Init:
		if n.W == e {
			return // continuation of the location's first epoch
		}
		// Second epoch access: split for the new sharing decision.
		n = p.Split(n, lo, hi)
		if d.raceOnWrite(n, lo, hi, tid, tc, pc) {
			return
		}
		n.W = e
		n.PC = pc
		n = p.DecideSecondEpoch(n)
		d.stats.SharingComparisons += 2

	case dyngran.Shared:
		if d.raceOnWrite(n, lo, hi, tid, tc, pc) {
			return
		}
		// The shared clock is updated for the whole range; the bitmap
		// covers the range so neighbours count as same-epoch accesses.
		n.W = e
		n.PC = pc
		d.markShared(p, n, bm)

	case dyngran.Private, dyngran.Race:
		if n.Lo < lo || n.Hi > hi {
			n = p.Split(n, lo, hi) // private clocks stay per-location
		}
		if n.State == dyngran.Race && n.Reported {
			n.W = e
			n.PC = pc
			return
		}
		if d.raceOnWrite(n, lo, hi, tid, tc, pc) {
			return
		}
		n.W = e
		n.PC = pc
		d.maybeReshare(p, n, bm)
	}
}

// maybeReshare implements the adaptive-resharing extension: a Private
// location whose neighbourhood has stabilized gets a fresh sharing
// decision every ReshareInterval distinct-epoch accesses, letting the
// granularity keep adapting after the second epoch.
func (d *Detector) maybeReshare(p *dyngran.Plane, n *dyngran.Node, bm *epochbitmap.Bitmap) {
	if d.cfg.ReshareInterval == 0 || n.State != dyngran.Private {
		return
	}
	n.Settled++
	if n.Settled < d.cfg.ReshareInterval {
		return
	}
	n.Settled = 0
	d.stats.SharingComparisons += 2
	d.reshares++
	n = p.DecideSecondEpoch(n)
	d.markShared(p, n, bm)
}

// raceOnWrite runs the FastTrack write checks for node n (write plane) and
// the read plane over [lo, hi); on a race it dissolves sharing, marks the
// location, and reports. It returns true when a race was found.
func (d *Detector) raceOnWrite(n *dyngran.Node, lo, hi uint64, tid vc.TID, tc *vc.VC, pc event.PC) bool {
	kind, other := fasttrack.CheckWrite(n.W, nil, tc)
	var otherPC event.PC
	if kind == fasttrack.NoRace {
		if rTid, rPC, raced := d.checkReadPlane(lo, hi, tc); raced {
			kind, other, otherPC = fasttrack.ReadWrite, rTid, rPC
		}
	} else {
		otherPC = n.PC
		if d.prov != nil {
			d.prov.captureCmp("write", other, uint64(n.W.Clock()), uint64(tc.Get(other)), n)
		}
	}
	if kind == fasttrack.NoRace {
		return false
	}
	_, e := d.now(tid)
	n = d.write.SetRace(n, lo, hi)
	n.W = e
	n.PC = pc
	d.report(kind, lo, hi, tid, pc, other, otherPC)
	return true
}

// Read processes a shared read (the Figure 3 path).
func (d *Detector) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if event.NonShared(addr) {
		d.stats.NonShared++
		d.maybePublish()
		return
	}
	d.stats.Accesses++
	d.maybePublish()
	if d.prov != nil {
		d.prov.tick()
	}
	lo, hi := d.footprint(addr, uint64(size))
	bm := d.bitmap(tid)
	if bm.Read(lo, hi) {
		d.stats.SameEpoch++
		return
	}
	if d.prov != nil {
		d.prov.noteAccess(tid, pc, lo, hi)
	}
	tc, e := d.now(tid)
	for cur := lo; cur < hi; {
		n, segHi := segment(d.read, cur, hi)
		d.readSegment(cur, segHi, n, tid, tc, e, pc, bm)
		cur = segHi
	}
	d.trackTotal()
}

// readSegment handles one maximal run of a read footprint within a single
// read node (or unshadowed memory).
func (d *Detector) readSegment(lo, hi uint64, n *dyngran.Node, tid vc.TID, tc *vc.VC, e vc.Epoch, pc event.PC, bm *epochbitmap.Bitmap) {
	p := d.read
	if n == nil {
		d.stats.Plane.LocCreations++
		wTid, wPC, raced := d.checkWritePlane(lo, hi, tc)
		if !raced && d.firstEpochSharing() {
			fresh := fasttrack.Read{E: e}
			if ext, ok := p.TryExtendLeft(lo, hi, 0, &fresh); ok {
				ext.PC = pc
				return
			}
		}
		n = p.NewNode(lo, hi, dyngran.Init)
		d.updateRead(n, tid, e, tc)
		n.PC = pc
		if raced {
			n.SetState(dyngran.Race)
			n.Reported = true
			p.Tally.ToRace++
			d.report(fasttrack.WriteRead, lo, hi, tid, pc, wTid, wPC)
			return
		}
		d.decideFirstAccess(p, n)
		return
	}

	switch n.State {
	case dyngran.Init:
		if d.sameReadEpoch(n, e) {
			return
		}
		n = p.Split(n, lo, hi)
		if d.raceOnRead(n, lo, hi, tid, tc, pc) {
			d.updateRead(n, tid, e, tc) // record the read even on race
			return
		}
		conflict := d.updateRead(n, tid, e, tc)
		n.PC = pc
		if !conflict || !d.readShareBlocked(n) {
			n = d.decideReadSharing(p, n)
			_ = n
		} else {
			n.SetState(dyngran.Private)
			n.InitShared = false
			p.Tally.ToPrivate++
		}

	case dyngran.Shared:
		if d.raceOnRead(n, lo, hi, tid, tc, pc) {
			return
		}
		d.updateRead(n, tid, e, tc)
		n.PC = pc
		d.markShared(p, n, bm)

	case dyngran.Private, dyngran.Race:
		if n.Lo < lo || n.Hi > hi {
			n = p.Split(n, lo, hi)
		}
		if n.State == dyngran.Race && n.Reported {
			d.updateRead(n, tid, e, tc)
			n.PC = pc
			return
		}
		if d.raceOnRead(n, lo, hi, tid, tc, pc) {
			d.updateRead(n, tid, e, tc)
			return
		}
		if conflict := d.updateRead(n, tid, e, tc); !conflict {
			d.maybeReshare(p, n, bm)
		}
		n.PC = pc
	}
}

// raceOnRead runs the FastTrack read check (against the write plane) for a
// read of [lo, hi); on a race it dissolves sharing of the read node, marks
// and reports. Returns true when a race was found.
func (d *Detector) raceOnRead(n *dyngran.Node, lo, hi uint64, tid vc.TID, tc *vc.VC, pc event.PC) bool {
	wTid, wPC, raced := d.checkWritePlane(lo, hi, tc)
	if !raced {
		return false
	}
	n = d.read.SetRace(n, lo, hi)
	n.PC = pc
	d.report(fasttrack.WriteRead, lo, hi, tid, pc, wTid, wPC)
	return true
}

// checkWritePlane scans the write plane in [lo, hi) for a write not ordered
// before tc.
func (d *Detector) checkWritePlane(lo, hi uint64, tc *vc.VC) (vc.TID, event.PC, bool) {
	for cur := lo; cur < hi; {
		n, next := d.write.Tab.Run(cur, hi)
		if n != nil {
			if kind, other := fasttrack.CheckRead(n.W, tc); kind != fasttrack.NoRace {
				if d.prov != nil {
					d.prov.captureCmp("write", other, uint64(n.W.Clock()), uint64(tc.Get(other)), n)
				}
				return other, n.PC, other != vc.NoTID
			}
		}
		cur = next
	}
	return vc.NoTID, 0, false
}

// updateRead records a read into n's adaptive representation, accounting
// for epoch→vector inflation. It reports whether the representation is (or
// became) read-shared — the paper's "read-read conflict".
func (d *Detector) updateRead(n *dyngran.Node, tid vc.TID, e vc.Epoch, tc *vc.VC) bool {
	before := n.R.Bytes()
	if n.R.UpdateIn(d.vcs, tid, e, tc) {
		// Fresh inflation: many locations of an initialize-then-read region
		// inflate to the same small vector; interning folds them into one
		// canonical shared array (a later mutation copy-on-writes away).
		n.R.V = d.intern.Intern(n.R.V)
	}
	if after := n.R.Bytes(); after != before {
		d.read.AccountInflation(int64(after - before))
	}
	return n.R.Shared()
}

// sameReadEpoch reports whether read node n already records exactly the
// current epoch (the location's first epoch is still running).
func (d *Detector) sameReadEpoch(n *dyngran.Node, e vc.Epoch) bool {
	return !n.R.Shared() && n.R.E == e
}

// firstEpochSharing reports whether the temporary Init-state sharing paths
// (including the extend-left fast path) are active.
func (d *Detector) firstEpochSharing() bool {
	return d.cfg.Granularity == Dynamic && !d.cfg.NoInitState && !d.cfg.NoInitSharing
}

// decideFirstAccess applies the first-access sharing policy to a fresh
// node. No bitmap marking happens here: during a location's first epoch
// the shared node only ever grows toward addresses that are about to be
// accessed anyway, so range-marking would cost O(range) per access for no
// filtering benefit.
func (d *Detector) decideFirstAccess(p *dyngran.Plane, n *dyngran.Node) {
	if d.cfg.Granularity != Dynamic {
		n.SetState(dyngran.Private)
		p.Tally.ToPrivate++
		return
	}
	if d.cfg.NoInitState {
		// Table 5 ablation: one final decision, made now.
		d.stats.SharingComparisons += 2
		p.DecideSecondEpoch(n)
		return
	}
	if d.cfg.NoInitSharing {
		n.InitShared = false
		return
	}
	d.stats.SharingComparisons += 2
	p.TryFirstEpochShare(n)
}

// decideReadSharing makes the second-epoch decision for a read node,
// optionally consulting the write plane first (the Section VII extension).
func (d *Detector) decideReadSharing(p *dyngran.Plane, n *dyngran.Node) *dyngran.Node {
	if d.cfg.WriteGuidedReads {
		// If the corresponding write location is Private, its neighbours'
		// clocks differed; the read clocks would have to be compared for
		// nothing, so predict Private without comparing.
		if w := d.write.Tab.Get(n.Lo); w != nil && w.State == dyngran.Private {
			n.SetState(dyngran.Private)
			n.InitShared = false
			p.Tally.ToPrivate++
			p.Tally.ShareRejected++
			return n
		}
	}
	d.stats.SharingComparisons += 2
	return p.DecideSecondEpoch(n)
}

// readShareBlocked reports whether a read-read conflict should block
// sharing for this node (paper: "no read-read conflict for a read
// location" gates the Shared transition).
func (d *Detector) readShareBlocked(n *dyngran.Node) bool { return n.R.Shared() }

// markShared extends the same-epoch bitmap over a node's whole range when
// the node covers more than one location, so later accesses to its other
// locations short-circuit — the mechanism that raises the same-epoch
// percentage under dynamic granularity (Table 4). Slots of other nodes
// inside the range stay unmarked: first-epoch sharing merges across
// unaccessed gaps, and a gap address accessed later gets a node of its own,
// whose accesses must still be checked.
func (d *Detector) markShared(p *dyngran.Plane, n *dyngran.Node, bm *epochbitmap.Bitmap) {
	if n.Hi-n.Lo <= 1 || n.Locs <= 1 {
		return
	}
	for lo := n.Lo; lo < n.Hi; {
		m, hi := p.Tab.Run(lo, n.Hi)
		switch {
		case m != nil && m != n:
			// Another node's slots: left to its own checks.
		case p.Kind == dyngran.WritePlane:
			bm.MarkWrite(lo, hi)
		default:
			bm.MarkRead(lo, hi)
		}
		lo = hi
	}
}

// segment returns the node covering lo (or nil) and the end of the
// maximal run of [lo, hi) it covers from lo. A node's run ends at the first
// slot of another node: a gapped node's range can enclose them (see
// markShared). Read and Write walk a footprint segment by segment and may
// mutate the plane in between, so each step re-reads the shadow table.
func segment(p *dyngran.Plane, lo, hi uint64) (*dyngran.Node, uint64) {
	n, end := p.Tab.Run(lo, hi)
	if n != nil && n.Hi < end {
		end = n.Hi
	}
	return n, end
}

// ---- Synchronization events ----

// Acquire applies T_t ⊔= L_l.
func (d *Detector) Acquire(tid vc.TID, l event.LockID) {
	d.noteSync("acquire", tid, uint64(l))
	d.th.Acquire(tid, l)
}

// Release applies L_l ⊔= T_t, starts tid's next epoch, and resets the
// thread's same-epoch bitmap (Section IV.A).
func (d *Detector) Release(tid vc.TID, l event.LockID) {
	d.noteSync("release", tid, uint64(l))
	d.th.Release(tid, l)
	d.bitmap(tid).Reset()
}

// AcquireShared applies a rwlock read-lock's clock update.
func (d *Detector) AcquireShared(tid vc.TID, l event.LockID) {
	d.noteSync("acquire-shared", tid, uint64(l))
	d.th.AcquireShared(tid, l)
}

// ReleaseShared publishes the reader's time to the lock's reader clock and
// starts the reader's next epoch (resetting its same-epoch bitmap).
func (d *Detector) ReleaseShared(tid vc.TID, l event.LockID) {
	d.noteSync("release-shared", tid, uint64(l))
	d.th.ReleaseShared(tid, l)
	d.bitmap(tid).Reset()
}

// Fork orders the child after the parent's past.
func (d *Detector) Fork(parent, child vc.TID) {
	d.noteSync("fork", parent, uint64(child))
	d.th.Fork(parent, child)
	d.bitmap(parent).Reset()
}

// Join orders the parent after the child.
func (d *Detector) Join(parent, child vc.TID) {
	d.noteSync("join", parent, uint64(child))
	d.th.Join(parent, child)
}

// BarrierArrive contributes tid's clock to the barrier and starts a new
// epoch (resetting the bitmap).
func (d *Detector) BarrierArrive(tid vc.TID, b event.BarrierID) {
	d.noteSync("barrier-arrive", tid, uint64(b))
	d.th.BarrierArrive(tid, b)
	d.bitmap(tid).Reset()
}

// BarrierDepart absorbs the barrier clock.
func (d *Detector) BarrierDepart(tid vc.TID, b event.BarrierID) {
	d.noteSync("barrier-depart", tid, uint64(b))
	d.th.BarrierDepart(tid, b)
}

// ChanSend publishes tid's time for the matching receive (and absorbs the
// slot-reuse back edge on buffered channels). It starts a new epoch, so the
// same-epoch bitmap resets.
func (d *Detector) ChanSend(tid vc.TID, ch event.ChanID, cap int) {
	d.noteSync("chan-send", tid, uint64(uint32(ch)))
	d.th.ChanSend(tid, ch, cap)
	d.bitmap(tid).Reset()
}

// ChanRecv absorbs the matching send's publication and publishes for the
// back edge; a new epoch starts.
func (d *Detector) ChanRecv(tid vc.TID, ch event.ChanID, cap int) {
	d.noteSync("chan-recv", tid, uint64(uint32(ch)))
	d.th.ChanRecv(tid, ch, cap)
	d.bitmap(tid).Reset()
}

// ChanAck absorbs the unbuffered rendezvous back edge (acquire only — no
// new epoch, no bitmap reset).
func (d *Detector) ChanAck(tid vc.TID, ch event.ChanID, cap int) {
	d.noteSync("chan-ack", tid, uint64(uint32(ch)))
	d.th.ChanAck(tid, ch, cap)
}

// WGAdd carries the counter delta only; no happens-before edge.
func (d *Detector) WGAdd(vc.TID, event.WGID, int) {}

// WGDone publishes tid's time to the group; a new epoch starts.
func (d *Detector) WGDone(tid vc.TID, wg event.WGID) {
	d.noteSync("wg-done", tid, uint64(uint32(wg)))
	d.th.WGDone(tid, wg)
	d.bitmap(tid).Reset()
}

// WGWait absorbs every Done publication of the group (acquire only).
func (d *Detector) WGWait(tid vc.TID, wg event.WGID) {
	d.noteSync("wg-wait", tid, uint64(uint32(wg)))
	d.th.WGWait(tid, wg)
}

// Malloc is a no-op: shadow state appears lazily on first access.
func (d *Detector) Malloc(vc.TID, uint64, uint64) {}

// Free discards the shadow state of the freed range in both planes — the
// sequential-deletion path the Figure 4 indexing arrays exist for. A
// sharded detector walks only its owned blocks, so a free of a large
// allocation costs each pipeline worker O(range/Shards) rather than
// O(range).
func (d *Detector) Free(_ vc.TID, addr uint64, size uint64) {
	lo, hi := d.footprint(addr, size)
	if d.cfg.Sharded() {
		d.freeOwnedBlocks(lo, hi)
	} else {
		d.read.DropRange(lo, hi)
		d.write.DropRange(lo, hi)
	}
	d.trackTotal()
}

// freeOwnedBlocks applies DropRange to the intersection of [lo, hi) with
// every owned shadow block.
func (d *Detector) freeOwnedBlocks(lo, hi uint64) {
	if hi <= lo {
		return
	}
	shards := uint64(d.cfg.Shards)
	shard := uint64(d.cfg.Shard)
	b := lo >> shadow.BlockShift
	b += (shard - b%shards + shards) % shards // first owned block ≥ lo's
	for ; b<<shadow.BlockShift < hi; b += shards {
		segLo := b << shadow.BlockShift
		if segLo < lo {
			segLo = lo
		}
		segHi := (b + 1) << shadow.BlockShift
		if segHi > hi {
			segHi = hi
		}
		d.read.DropRange(segLo, segHi)
		d.write.DropRange(segLo, segHi)
	}
}
