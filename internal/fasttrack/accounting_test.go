package fasttrack

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/progfuzz"
	"repro/internal/sim"
	"repro/internal/vc"
	"repro/workloads"
)

// generalClockBytesSlow recomputes GeneralClockBytes from scratch: every
// general thread clock plus every queued vector-clock publication. It is
// the oracle for the running total.
func (ts *Threads) generalClockBytesSlow() int64 {
	var n int64
	for _, c := range ts.clocks {
		if c != nil {
			n += clockBytes(c)
		}
	}
	for _, c := range ts.chans {
		for i := c.sendq.head; i < len(c.sendq.vals); i++ {
			n += c.sendq.vals[i].bytes()
		}
		for i := c.recvq.head; i < len(c.recvq.vals); i++ {
			n += c.recvq.vals[i].bytes()
		}
	}
	for _, w := range ts.wgs {
		for _, cv := range w.done {
			n += cv.bytes()
		}
	}
	return n
}

// record runs p and returns its event stream.
func record(p sim.Program, seed int64) []event.Rec {
	var recs []event.Rec
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		recs = append(recs, b.Recs...)
		event.PutBatch(b)
	}}
	sim.Run(p, enc, sim.Options{Seed: seed})
	enc.Close()
	return recs
}

// apply makes the Threads calls the detector makes for r: an access reads
// the thread's clock and epoch, a sync event updates the clocks.
func apply(ts *Threads, r *event.Rec) {
	switch r.Op {
	case event.OpRead, event.OpWrite:
		ts.Now(r.Tid)
	case event.OpAcquire:
		ts.Acquire(r.Tid, event.LockID(r.Aux))
	case event.OpRelease:
		ts.Release(r.Tid, event.LockID(r.Aux))
	case event.OpAcquireShared:
		ts.AcquireShared(r.Tid, event.LockID(r.Aux))
	case event.OpReleaseShared:
		ts.ReleaseShared(r.Tid, event.LockID(r.Aux))
	case event.OpFork:
		ts.Fork(r.Tid, vc.TID(r.Aux))
	case event.OpJoin:
		ts.Join(r.Tid, vc.TID(r.Aux))
	case event.OpBarrierArrive:
		ts.BarrierArrive(r.Tid, event.BarrierID(r.Aux))
	case event.OpBarrierDepart:
		ts.BarrierDepart(r.Tid, event.BarrierID(r.Aux))
	case event.OpChanSend:
		ts.ChanSend(r.Tid, event.ChanID(r.Aux), int(r.Size))
	case event.OpChanRecv:
		ts.ChanRecv(r.Tid, event.ChanID(r.Aux), int(r.Size))
	case event.OpChanAck:
		ts.ChanAck(r.Tid, event.ChanID(r.Aux), int(r.Size))
	case event.OpWGDone:
		ts.WGDone(r.Tid, event.WGID(r.Aux))
	case event.OpWGWait:
		ts.WGWait(r.Tid, event.WGID(r.Aux))
	}
}

// checkRunningTotal replays recs in both clock modes, with and without a
// clock pool, and compares the running GeneralClockBytes with a full
// recomputation after every event. Without a pool a copy-on-write split
// can shrink a clock's capacity, so every resize site is exercised. The
// peak must be the high-water mark of the values sampled along the way.
func checkRunningTotal(t *testing.T, name string, recs []event.Rec) {
	t.Helper()
	for _, cfg := range []struct {
		mode ClockMode
		pool *vc.Pool
	}{{ClockGeneral, vc.NewPool()}, {ClockCompact, vc.NewPool()}, {ClockGeneral, nil}, {ClockCompact, nil}} {
		ts := NewThreads()
		ts.SetPool(cfg.pool)
		ts.SetClockMode(cfg.mode)
		run := fmt.Sprintf("%s/%v/pooled=%v", name, cfg.mode, cfg.pool != nil)
		var maxSeen int64
		for i := range recs {
			apply(ts, &recs[i])
			got, want := ts.GeneralClockBytes(), ts.generalClockBytesSlow()
			if got != want {
				t.Fatalf("%s: event %d (%v): running total %d, recomputed %d", run, i, recs[i].Op, got, want)
			}
			maxSeen = max(maxSeen, got)
		}
		if peak := ts.GeneralClockPeakBytes(); peak > maxSeen {
			t.Fatalf("%s: peak %d above every observed total (max %d)", run, peak, maxSeen)
		}
	}
}

// TestGeneralClockRunningTotal is the oracle for the O(1) general-clock
// accounting over random programs and every workload.
func TestGeneralClockRunningTotal(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		prog, _ := progfuzz.Generate(progfuzz.Config{
			Threads: 2 + int(seed%4), LockedVars: 4, PrivateVars: 2, RacyVars: 2,
			OpsPerThread: 200, Barriers: seed%2 == 0, Seed: seed,
		})
		checkRunningTotal(t, "progfuzz", record(prog, seed))
	}
	for _, w := range workloads.All() {
		checkRunningTotal(t, w.Name, record(w.Program(), 42))
	}
}

// TestGeneralClockRunningTotalRandomOps drives random sync operations over
// a few threads, locks, channels and WaitGroups, so that every accounting
// site runs in both modes: repeated WaitGroup Done by one thread (entry
// replacement), buffered-channel slot reuse, rendezvous acks, demotion by
// locks, rwlocks and barriers, and joins of demoted children.
func TestGeneralClockRunningTotalRandomOps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var recs []event.Rec
		add := func(op event.Op, tid vc.TID, aux uint64, size uint32) {
			recs = append(recs, event.Rec{Op: op, Tid: tid, Aux: aux, Size: size})
		}
		const threads = 6
		for c := vc.TID(1); c < threads; c++ {
			add(event.OpFork, 0, uint64(c), 0)
		}
		ops := []event.Op{
			event.OpRead, event.OpAcquire, event.OpRelease, event.OpAcquireShared,
			event.OpReleaseShared, event.OpBarrierArrive, event.OpBarrierDepart,
			event.OpChanSend, event.OpChanRecv, event.OpChanAck, event.OpWGDone,
			event.OpWGWait,
		}
		for i := 0; i < 400; i++ {
			op := ops[rng.Intn(len(ops))]
			tid := vc.TID(rng.Intn(threads))
			// Even ids are unbuffered channels, odd ids have capacity 2.
			obj := uint64(rng.Intn(3))
			add(op, tid, obj, uint32(obj%2)*2)
			// Structured phases keep some threads compact until a lock,
			// rwlock or barrier demotes them.
			if rng.Intn(4) == 0 {
				add(event.OpChanSend, tid, 4, 0)
				add(event.OpChanRecv, vc.TID(rng.Intn(threads)), 4, 0)
				add(event.OpChanAck, tid, 4, 0)
			}
		}
		for c := vc.TID(1); c < threads; c++ {
			add(event.OpJoin, 0, uint64(c), 0)
		}
		checkRunningTotal(t, "random", recs)
	}
}
