package sampling

import (
	"math/bits"
	"testing"

	"repro/internal/event"
	"repro/internal/progfuzz"
	"repro/internal/sim"
	"repro/workloads"
)

// captureProgram runs p once (seed 42) and returns its event stream.
func captureProgram(p sim.Program) []event.Rec {
	var recs []event.Rec
	enc := &event.Encoder{Flush: func(bt *event.Batch) {
		recs = append(recs, bt.Recs...)
		event.PutBatch(bt)
	}}
	sim.Run(p, enc, sim.Options{Seed: 42})
	enc.Close()
	return recs
}

// captureStream returns the event stream of workload name at scale.
func captureStream(tb testing.TB, name string, scale int) []event.Rec {
	tb.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return captureProgram(spec.Build(scale))
}

// refRegion is one region's sampling state in the reference model.
type refRegion struct{ remaining, skip, gap uint64 }

// refSampler is a sequential reference model of the sampling decision:
// LiteRace bursts with a geometrically growing gap per (site, block)
// region, the first-burst exemption from the global credit check, and
// the pass-through short-circuit at 1000‰. Regions live in a map under
// the sampler's key mix, with unpacked state and no fast path, so a
// region's state can never be lost to a table doubling.
type refSampler struct {
	burst, decay, floor uint64
	shift               uint8
	rate                uint32
	regions             map[uint64]refRegion
	forwarded, skipped  uint64
}

func newRefSampler(opt Options) *refSampler {
	m := &refSampler{
		burst: 10, decay: 2, floor: 1, shift: 6,
		rate:    opt.RatePermille,
		regions: map[uint64]refRegion{},
	}
	if opt.BurstLength != 0 {
		m.burst = min(uint64(opt.BurstLength), 1<<16-1)
	}
	if opt.Decay != 0 {
		m.decay = uint64(opt.Decay)
	}
	if opt.FloorPermille != 0 {
		m.floor = uint64(opt.FloorPermille)
	}
	if opt.BlockShift != 0 {
		m.shift = opt.BlockShift
	}
	return m
}

func (m *refSampler) setRate(r uint32) {
	m.rate = uint32(max(uint64(r), m.floor))
}

// maxGap is the gap at which a region forwards burst accesses out of
// every burst+gap at the current rate (the floor when unbudgeted).
func (m *refSampler) maxGap() uint64 {
	g := m.burst * 1000 / max(uint64(m.rate), m.floor)
	return min(max(g, 1), 1<<24-1)
}

func (m *refSampler) decide(pc event.PC, addr uint64) bool {
	if m.rate >= 1000 {
		return true
	}
	k := ((addr>>m.shift)+1)*0x9E3779B97F4A7C15 ^ (uint64(pc) + 1)
	r := m.regions[k]
	first := r.gap == 0 || (r.skip == 0 && r.remaining > 0 && r.gap == m.burst)
	forward := true
	switch {
	case r.remaining > 0:
		r.remaining--
	case r.skip > 0:
		r.skip--
		forward = false
	case r.gap == 0:
		r = refRegion{remaining: m.burst - 1, gap: m.burst}
	default:
		g := min(r.gap*m.decay, m.maxGap())
		r = refRegion{remaining: m.burst - 1, skip: g, gap: g}
	}
	m.regions[k] = r
	if forward && m.rate > 0 && !first &&
		m.forwarded*1000 >= (m.forwarded+m.skipped+1)*uint64(m.rate) {
		forward = false
	}
	if forward {
		m.forwarded++
	} else {
		m.skipped++
	}
	return forward
}

// oracleRates is the budget schedule of the oracle replay: after a first
// stretch at the initial rate, each stretch of oracleStretch accesses runs
// at the next rate, covering the 1‰ floor, mid-range rates and 1000‰
// pass-through (999‰ is the highest rate that still samples).
var oracleRates = []uint32{1, 50, 1000, 300, 5, 999, 1000, 120, 1, 20}

const oracleStretch = 2500

// replayOracle replays recs through a sampler and the reference model
// side by side and fails at the first access they decide differently. It
// returns the sampler.
func replayOracle(t *testing.T, name string, recs []event.Rec, opt Options) *Detector {
	t.Helper()
	c := &event.Counter{}
	s := New(c, opt)
	m := newRefSampler(opt)
	accesses := 0
	for i := range recs {
		r := &recs[i]
		if r.Op != event.OpRead && r.Op != event.OpWrite {
			event.ApplyRec(s, r)
			continue
		}
		if accesses > 0 && accesses%oracleStretch == 0 {
			rate := oracleRates[(accesses/oracleStretch-1)%len(oracleRates)]
			s.SetRatePermille(rate)
			m.setRate(rate)
		}
		accesses++
		before := c.Reads + c.Writes
		event.ApplyRec(s, r)
		got := c.Reads+c.Writes != before
		if want := m.decide(r.PC, r.Addr); got != want {
			t.Fatalf("%s %+v: access %d (pc %d, addr %#x, rate %d‰): sampler forwarded=%v, model %v",
				name, opt, accesses, r.PC, r.Addr, m.rate, got, want)
		}
	}
	f, sk := s.Counts()
	if f != m.forwarded || sk != m.skipped {
		t.Errorf("%s %+v: Counts %d/%d, model %d/%d", name, opt, f, sk, m.forwarded, m.skipped)
	}
	if f+sk > 0 && s.Rate() != float64(f)/float64(f+sk) {
		t.Errorf("%s %+v: Rate %v after Counts, want %d/%d", name, opt, s.Rate(), f, f+sk)
	}
	return s
}

// TestDecisionOracle replays the always-on workload's programs and a
// random progfuzz program through the sampler and the reference model
// under a rate schedule, at the default options and at a second set with
// a shorter burst, a faster decay, a 2‰ floor and 16-byte blocks. Every
// decision and the final counts must agree.
func TestDecisionOracle(t *testing.T) {
	type stream struct {
		name string
		recs []event.Rec
	}
	var streams []stream
	for _, p := range []struct {
		name  string
		scale int
	}{{"facesim", 1}, {"canneal", 2}, {"pbzip2", 1}, {"x264", 2}} {
		streams = append(streams, stream{p.name, captureStream(t, p.name, p.scale)})
	}
	prog, _ := progfuzz.Generate(progfuzz.Config{
		Threads: 4, LockedVars: 24, PrivateVars: 24, RacyVars: 8,
		OpsPerThread: 4000, Barriers: true, Seed: 19,
	})
	streams = append(streams, stream{"progfuzz", captureProgram(prog)})

	for _, opt := range []Options{
		{},
		{BurstLength: 3, Decay: 3, FloorPermille: 2, BlockShift: 4},
	} {
		doublings := 0
		for _, st := range streams {
			s := replayOracle(t, st.name, st.recs, opt)
			doublings += bits.Len(uint(len(s.slots)/initialSlots)) - 1
		}
		if doublings < 3 {
			t.Errorf("%+v: the streams doubled the region table %d times, want at least 3", opt, doublings)
		}
	}
}
