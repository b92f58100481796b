// Package sampling implements a LiteRace-style sampling front end (Marino
// et al., PLDI 2009 — the paper's related work [14]): a wrapper that
// forwards only a sample of memory accesses to an underlying race
// detector, while always forwarding every synchronization operation (the
// happens-before structure must stay exact or the detector would invent
// races).
//
// Sampling follows LiteRace's cold-region hypothesis with a granularity
// twist in the spirit of the reproduced paper: a region is one code site
// × one 64-byte address block (Options.BlockShift), not a code site
// alone. Each region starts at a 100% sampling rate that decays
// geometrically as it gets hotter, down to a floor. Rarely exercised
// site×block pairs — where races hide, because hot paths get tested —
// keep being analyzed; hot inner loops stop paying for instrumentation.
// Keying regions on the address block as well as the site is what
// preserves recall under tight budgets: a racy address's first accesses
// form a fresh cold region even when the touching code site is hot.
//
// The budget is a steady-state target. Untouched-cold-region first
// bursts ride above it by design (dropping them is what destroys
// recall), so on streaming access patterns — where most blocks are seen
// only a handful of times — the achieved fraction floors at the cold
// mass regardless of budget; on iterating workloads it converges to the
// budget as the run amortizes its cold start.
//
// The sampler is a single-owner sink, as event.Sink requires of every
// sink: one goroutine at a time delivers the events, so region state lives
// in plain 16-byte slots of an open-addressed table that the producer
// grows inline, and the forwarded/skipped tallies the credit check reads
// are plain fields. A resolved region in its skip phase costs one load
// and one store of its state. The skip path allocates nothing (the table
// only grows when a region is first seen, on the forwarded path). Only
// the global rate, which the feedback Controller sets from transport ack
// goroutines, and the tallies Rate reads for /metrics are atomic.
//
// On top of the per-region decay sits a global budget (RatePermille, set
// from race.Options.Budget): hot regions converge to the budget rate, a
// run-wide credit check keeps the overall forwarded fraction at or under
// the budget, and a rate of 1000‰ short-circuits into pure pass-through —
// byte-identical to no sampler at all. SetRatePermille is the knob the
// feedback Controller turns at run time.
package sampling

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/vc"
)

// Options configure the sampler.
type Options struct {
	// BurstLength is how many accesses of a region are forwarded each time
	// its budget refreshes (default 10, as in LiteRace).
	BurstLength uint32
	// Decay multiplies a region's inter-burst gap each time its budget is
	// exhausted (default 2).
	Decay uint32
	// FloorPermille is the minimum sampling rate in ‰ (default 1, i.e.
	// 0.1%). Regions never decay below it, and the Controller never
	// pushes the global rate under it.
	FloorPermille uint32
	// BlockShift sets the region granularity: a region is one code site ×
	// one 2^BlockShift-byte address block (default 6, i.e. 64-byte
	// blocks). Including address bits in the region key is what preserves
	// recall under tight budgets — a racy address's first accesses are a
	// fresh cold region even when its code site is hot. 64 or more
	// degenerates to classic LiteRace site-only regions.
	BlockShift uint8
	// RatePermille is the initial global sampling budget in ‰. 0 keeps
	// the classic LiteRace behaviour (decay to FloorPermille, no global
	// credit check); 1..999 makes hot regions converge on that rate and
	// caps the run-wide forwarded fraction at it; >= 1000 is pure
	// pass-through (every access forwarded, no state touched) so a 100%
	// budget is byte-identical to running without the sampler.
	RatePermille uint32
	// Telemetry, when non-nil, registers sampling_forwarded_total /
	// sampling_skipped_total counters and the detector_sampled_fraction
	// gauge on the registry. Samplers sharing a registry share the
	// counters, and the gauge is their ratio.
	Telemetry *telemetry.Registry
}

// Region state packs into one uint64:
//
//	bits  0–15  remaining  accesses left in the current burst
//	bits 16–39  skip       accesses to skip before the next refresh
//	bits 40–63  gap        current inter-burst gap (grows by Decay)
const (
	remainingBits = 16
	skipBits      = 24
	gapBits       = 24
	maxRemaining  = 1<<remainingBits - 1
	skipMask      = (1<<skipBits - 1) << remainingBits
	maxGapValue   = 1<<gapBits - 1
)

func packState(remaining, skip, gap uint32) uint64 {
	return uint64(remaining) | uint64(skip)<<remainingBits |
		uint64(gap)<<(remainingBits+skipBits)
}

func unpackState(s uint64) (remaining, skip, gap uint32) {
	return uint32(s & maxRemaining),
		uint32(s >> remainingBits & (1<<skipBits - 1)),
		uint32(s >> (remainingBits + skipBits))
}

// slot is one open-addressed table entry: a region key (zero means empty)
// and the packed region state. 16 bytes, four to a cache line.
type slot struct {
	key, state uint64
}

// initialSlots is the region table's starting size; it doubles at 75% load.
const initialSlots = 1024

// publishEvery is how many decisions may pass between two publications of
// the tallies Rate reads (a power of two).
const publishEvery = 1024

// Metrics is the sampler's telemetry instrument set. All fields are
// nil-safe: NewMetrics(nil) returns no-op instruments.
type Metrics struct {
	Forwarded *telemetry.Counter
	Skipped   *telemetry.Counter
}

// NewMetrics registers the sampling counters on r (nil r → no-ops).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Forwarded: r.Counter("sampling_forwarded_total",
			"Memory accesses the sampling front end forwarded to the detector."),
		Skipped: r.Counter("sampling_skipped_total",
			"Memory accesses the sampling front end dropped (sync is never dropped)."),
	}
}

// Detector wraps an underlying sink with adaptive sampling; it implements
// event.Sink and event.GoSink.
//
// A Detector has one owner, the producer: the goroutine that delivers
// events to it (one at a time, as event.Sink requires) is the only one
// that may call its Sink methods and Counts, and Counts is exact once the
// producer has stopped. SetRatePermille, RatePermille and Rate may be
// called from any goroutine at any time. Rate reads the tallies as the
// producer last published them, at least every publishEvery decisions
// and in Counts, as do the telemetry counters.
type Detector struct {
	opt   Options
	under event.Sink

	rate atomic.Uint32 // global budget in ‰; >=1000 → pass-through

	// Producer-owned: the region table, the region resolved last and the
	// exact tallies the credit check reads.
	slots              []slot
	used               int
	lastKey            uint64
	last               *slot
	forwarded, skipped uint64

	// The tallies as last published, for Rate from any goroutine.
	pubForwarded, pubSkipped atomic.Uint64

	met *Metrics
}

// New wraps under with a LiteRace-style sampler.
func New(under event.Sink, opt Options) *Detector {
	if opt.BurstLength == 0 {
		opt.BurstLength = 10
	}
	if opt.BurstLength > maxRemaining {
		opt.BurstLength = maxRemaining
	}
	if opt.Decay == 0 {
		opt.Decay = 2
	}
	if opt.FloorPermille == 0 {
		opt.FloorPermille = 1
	}
	if opt.BlockShift == 0 {
		opt.BlockShift = 6
	}
	d := &Detector{opt: opt, under: under, met: NewMetrics(opt.Telemetry)}
	d.rate.Store(opt.RatePermille)
	d.slots = make([]slot, initialSlots)
	// lastKey 0 resolves to the slot lookup(0) returns in an empty table.
	d.last = &d.slots[0]
	if opt.Telemetry != nil {
		// The registry keeps the first gauge registered under this name, so
		// the gauge reads the shared counters, not this sampler's tallies.
		fwd, skip := d.met.Forwarded, d.met.Skipped
		opt.Telemetry.GaugeFunc("detector_sampled_fraction",
			"Fraction of memory accesses forwarded to the detector (1 when unsampled).",
			func() float64 { return fraction(fwd.Load(), skip.Load()) })
	}
	return d
}

// SetRatePermille sets the global sampling budget in ‰ (the Controller's
// knob). Values >= 1000 turn the sampler into a pass-through; values
// below FloorPermille are clamped up to it. Safe from any goroutine.
func (d *Detector) SetRatePermille(r uint32) {
	if r < d.opt.FloorPermille {
		r = d.opt.FloorPermille
	}
	d.rate.Store(r)
}

// RatePermille returns the current global budget in ‰ (0 = unbudgeted
// classic LiteRace decay). Safe from any goroutine.
func (d *Detector) RatePermille() uint32 { return d.rate.Load() }

// Counts returns the forwarded/skipped access tallies and publishes them
// for Rate and the telemetry counters. Producer only.
func (d *Detector) Counts() (forwarded, skipped uint64) {
	d.publish()
	return d.forwarded, d.skipped
}

// Rate returns the effective sampling rate over the run so far, from the
// last published tallies (1 when no access has been counted, and on the
// 100% pass-through lane, which counts nothing). Safe from any goroutine.
func (d *Detector) Rate() float64 {
	return fraction(d.pubForwarded.Load(), d.pubSkipped.Load())
}

// fraction is the forwarded share of f forwarded and s skipped accesses,
// 1 when none was counted.
func fraction(f, s uint64) float64 {
	if f+s == 0 {
		return 1
	}
	return float64(f) / float64(f+s)
}

// publish copies the producer's tallies to the atomics Rate reads and adds
// what was decided since the last publication to the telemetry counters.
func (d *Detector) publish() {
	d.met.Forwarded.Add(d.forwarded - d.pubForwarded.Load())
	d.met.Skipped.Add(d.skipped - d.pubSkipped.Load())
	d.pubForwarded.Store(d.forwarded)
	d.pubSkipped.Store(d.skipped)
}

// maxGap is the inter-burst gap at which a region's steady-state rate
// reaches the effective floor: Burst forwarded out of every Burst+gap.
func (d *Detector) maxGap(rate uint32) uint32 {
	r := rate
	if r == 0 || r < d.opt.FloorPermille {
		r = d.opt.FloorPermille
	}
	g := d.opt.BurstLength * 1000 / r
	if g > maxGapValue {
		g = maxGapValue
	}
	if g < 1 {
		g = 1
	}
	return g
}

// regionKey mixes the code site and the address block into the table key.
// The Fibonacci multiply spreads block bits across the word so (site,
// block) pairs rarely collide; a collision only merges two regions'
// sampling state, never correctness.
func (d *Detector) regionKey(pc event.PC, addr uint64) uint64 {
	return ((addr>>d.opt.BlockShift)+1)*0x9E3779B97F4A7C15 ^ (uint64(pc) + 1)
}

// home is key k's first probe position in a table of mask+1 slots.
func home(k, mask uint64) uint64 { return (k * 0x9E3779B97F4A7C15 >> 32) & mask }

// lookup returns the slot of region key k, inserting it (state zero =
// untouched cold region) on first sight. An insert that brings the table
// to 75% load doubles it first, so the slot returned is always in the
// current table.
func (d *Detector) lookup(k uint64) *slot {
	mask := uint64(len(d.slots) - 1)
	for i := home(k, mask); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.key == k {
			return s
		}
		if s.key == 0 {
			s.key = k
			d.used++
			if d.used*4 >= len(d.slots)*3 {
				return d.grow(k)
			}
			return s
		}
	}
}

// grow doubles the region table and returns key k's slot in the new one.
func (d *Detector) grow(k uint64) *slot {
	old := d.slots
	d.slots = make([]slot, 2*len(old))
	mask := uint64(len(d.slots) - 1)
	var ks *slot
	for _, o := range old {
		if o.key == 0 {
			continue
		}
		i := home(o.key, mask)
		for d.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = o
		if o.key == k {
			ks = &d.slots[i]
		}
	}
	return ks
}

// sample decides whether this access of the region at (pc, addr block)
// is analyzed.
func (d *Detector) sample(pc event.PC, addr uint64) bool {
	rate := d.rate.Load()
	if rate >= 1000 {
		// 100% budget: pure pass-through, no counters, no region state —
		// byte-identical to no sampler.
		return true
	}
	k := d.regionKey(pc, addr)
	s := d.last
	if k != d.lastKey {
		s = d.lookup(k)
		d.last, d.lastKey = s, k
	}
	var forward bool
	if st := s.state; st&maxRemaining == 0 && st&skipMask != 0 {
		// Skip phase, the common case once a region is hot.
		s.state = st - 1<<remainingBits
	} else {
		forward = d.advance(s, rate)
	}
	if forward {
		d.forwarded++
	} else {
		d.skipped++
	}
	if (d.forwarded+d.skipped)&(publishEvery-1) == 0 {
		d.publish()
	}
	return forward
}

// advance moves a region that is not in its skip phase to its next state
// and returns whether the access is forwarded.
func (d *Detector) advance(s *slot, rate uint32) bool {
	remaining, skip, gap := unpackState(s.state)
	switch {
	case remaining > 0:
		s.state--
	case gap == 0:
		// Untouched cold region: full first burst, no skip yet.
		s.state = packState(d.opt.BurstLength-1, 0, d.opt.BurstLength)
	default:
		// Budget refresh: the gap grows until the floor rate is reached.
		g := d.maxGap(rate)
		if hi, lo := bits.Mul32(gap, d.opt.Decay); hi == 0 && lo < g {
			g = lo
		}
		s.state = packState(d.opt.BurstLength-1, g, g)
	}
	firstBurst := gap == 0 ||
		(skip == 0 && remaining > 0 && gap == d.opt.BurstLength)
	// Global credit check: once the run-wide forwarded fraction is at the
	// budget, only untouched-cold-region bursts may exceed it.
	return rate == 0 || firstBurst ||
		d.forwarded*1000 < (d.forwarded+d.skipped+1)*uint64(rate)
}

// Read forwards a sampled read.
func (d *Detector) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if d.sample(pc, addr) {
		d.under.Read(tid, addr, size, pc)
	}
}

// Write forwards a sampled write.
func (d *Detector) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if d.sample(pc, addr) {
		d.under.Write(tid, addr, size, pc)
	}
}

// Synchronization and heap events are never sampled away.
func (d *Detector) Acquire(t vc.TID, l event.LockID) { d.under.Acquire(t, l) }
func (d *Detector) Release(t vc.TID, l event.LockID) { d.under.Release(t, l) }
func (d *Detector) AcquireShared(t vc.TID, l event.LockID) {
	d.under.AcquireShared(t, l)
}
func (d *Detector) ReleaseShared(t vc.TID, l event.LockID) {
	d.under.ReleaseShared(t, l)
}
func (d *Detector) Fork(p, c vc.TID) { d.under.Fork(p, c) }
func (d *Detector) Join(p, c vc.TID) { d.under.Join(p, c) }
func (d *Detector) BarrierArrive(t vc.TID, b event.BarrierID) {
	d.under.BarrierArrive(t, b)
}
func (d *Detector) BarrierDepart(t vc.TID, b event.BarrierID) {
	d.under.BarrierDepart(t, b)
}
func (d *Detector) Malloc(t vc.TID, a, s uint64) { d.under.Malloc(t, a, s) }
func (d *Detector) Free(t vc.TID, a, s uint64)   { d.under.Free(t, a, s) }

// Go-native synchronization is never sampled either: the Dispatch helpers
// pass it through when the underlying sink speaks event.GoSink and lower
// it onto the synthetic locks otherwise, exactly as an unwrapped sink.
func (d *Detector) ChanSend(t vc.TID, ch event.ChanID, c int) {
	event.DispatchChanSend(d.under, t, ch, c)
}
func (d *Detector) ChanRecv(t vc.TID, ch event.ChanID, c int) {
	event.DispatchChanRecv(d.under, t, ch, c)
}
func (d *Detector) ChanAck(t vc.TID, ch event.ChanID, c int) {
	event.DispatchChanAck(d.under, t, ch, c)
}
func (d *Detector) WGAdd(t vc.TID, wg event.WGID, delta int) {
	event.DispatchWGAdd(d.under, t, wg, delta)
}
func (d *Detector) WGDone(t vc.TID, wg event.WGID) { event.DispatchWGDone(d.under, t, wg) }
func (d *Detector) WGWait(t vc.TID, wg event.WGID) { event.DispatchWGWait(d.under, t, wg) }
