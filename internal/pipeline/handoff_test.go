package pipeline

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/vc"
)

// handOffStream is a record stream cut into the batches a server would
// decode. Batches 1, 3, 5 and 6 qualify for the one-worker hand-off;
// batch 2 holds a zero-size access and batch 4 a block-straddling one, so
// those two are routed record by record and leave records pending that
// the next hand-off must ship first. Batch 6 is all stack accesses (its
// hand-off ships nothing) and batch 7 is empty. The stream carries sync,
// heap and Go-native sync records, non-shared accesses, and three races.
func handOffStream() [][]event.Rec {
	acc := func(op event.Op, tid vc.TID, addr uint64, size uint32, pc event.PC) event.Rec {
		return event.Rec{Op: op, Tid: tid, Addr: addr, Size: size, PC: pc}
	}
	sync := func(op event.Op, tid vc.TID, aux uint64) event.Rec {
		return event.Rec{Op: op, Tid: tid, Aux: aux}
	}
	const heap, stack = 0x10000, event.StackBase + 0x100
	batches := [][]event.Rec{
		{
			sync(event.OpFork, 0, 1), sync(event.OpFork, 0, 2),
			{Op: event.OpMalloc, Tid: 0, Addr: heap, Aux: 1024},
			acc(event.OpWrite, 1, heap, 8, 10), acc(event.OpWrite, 1, heap, 8, 10),
			acc(event.OpRead, 1, stack, 8, 11), acc(event.OpWrite, 2, stack+64, 4, 12),
			sync(event.OpAcquire, 1, 7), acc(event.OpWrite, 1, heap+8, 8, 13), sync(event.OpRelease, 1, 7),
			acc(event.OpRead, 2, heap, 8, 14), // races with tid 1's write
		},
		{
			acc(event.OpWrite, 2, heap+16, 0, 20), // zero-size: counted, never shipped
			sync(event.OpAcquire, 2, 7), acc(event.OpRead, 2, heap+8, 8, 21), sync(event.OpRelease, 2, 7),
			acc(event.OpWrite, 2, heap+32, 4, 22),
		},
		{
			acc(event.OpWrite, 1, heap+32, 4, 30), // races with tid 2's write
			acc(event.OpRead, 1, stack, 8, 31),
			{Op: event.OpChanSend, Tid: 1, Aux: 3, Size: 1}, {Op: event.OpChanRecv, Tid: 2, Aux: 3, Size: 1},
			acc(event.OpRead, 2, heap+32, 4, 32),
		},
		{
			acc(event.OpWrite, 1, heap+0x7c, 8, 40), // straddles the 128-byte block at heap+0x80
			acc(event.OpRead, 2, heap+0x80, 4, 41),  // races with the write's second half
			{Op: event.OpWGAdd, Tid: 0, Aux: 5, Size: 2},
		},
		{
			{Op: event.OpWGDone, Tid: 1, Aux: 5}, {Op: event.OpWGDone, Tid: 2, Aux: 5}, {Op: event.OpWGWait, Tid: 0, Aux: 5},
			acc(event.OpWrite, 0, heap+0x80, 4, 50), acc(event.OpWrite, 0, heap+0x80, 4, 50),
			sync(event.OpJoin, 0, 1), sync(event.OpJoin, 0, 2),
			{Op: event.OpFree, Tid: 0, Addr: heap, Aux: 1024},
		},
		{acc(event.OpRead, 0, stack, 8, 60), acc(event.OpWrite, 0, stack+8, 8, 61)},
		{},
	}
	seq := uint64(1000)
	for _, b := range batches {
		for i := range b {
			seq += 3
			b[i].Seq = seq // a numbering the router must replace with its own
		}
	}
	return batches
}

// toCols copies recs into a pooled columnar batch.
func toCols(recs []event.Rec) *event.Cols {
	c := event.GetCols()
	for _, r := range recs {
		c.Append(r)
	}
	return c
}

// TestTakeColsMatchesRouting feeds one batch stream through a pipeline
// two ways — TakeCols (hand-off where the batch allows it) and the Sink
// methods (the record lane) — with provenance off and on, and requires
// the identical Result: races, provenance and every Stats field. TakeCols
// must also put every batch back exactly once, whichever path it took.
// Two workers never hand off, so that case pins TakeCols's routing
// fallback.
func TestTakeColsMatchesRouting(t *testing.T) {
	stream := handOffStream()
	for _, tc := range []struct {
		workers int
		prov    bool
	}{{1, false}, {1, true}, {2, false}, {2, true}} {
		workers, prov := tc.workers, tc.prov
		cfg := detector.Config{Granularity: detector.Dynamic, Provenance: prov}

		sink := New(Options{Workers: workers, Detector: cfg})
		for _, b := range stream {
			for i := range b {
				event.ApplyRec(sink, &b[i])
			}
		}
		want := sink.Wait()
		if len(want.Races) != 3 {
			t.Fatalf("workers=%d provenance=%v: record lane reported %d races, want 3: %v",
				workers, prov, len(want.Races), want.Races)
		}

		_, _, gets0, puts0 := event.PoolCounts()
		taken := New(Options{Workers: workers, Detector: cfg})
		for _, b := range stream {
			taken.TakeCols(toCols(b))
		}
		got := taken.Wait()
		_, _, gets1, puts1 := event.PoolCounts()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d provenance=%v: TakeCols result differs from the record lane\ngot  %+v\nwant %+v",
				workers, prov, got, want)
		}
		if gets1-gets0 != puts1-puts0 {
			t.Errorf("workers=%d provenance=%v: TakeCols took %d pooled batches and put back %d",
				workers, prov, gets1-gets0, puts1-puts0)
		}
	}
}

// TestTakeColsRoutesOversizedBatch pins the hand-off's size bound: a
// frame may claim more records than a routed batch holds, and such a
// batch is re-chunked by routing rather than queued whole.
func TestTakeColsRoutesOversizedBatch(t *testing.T) {
	p := New(Options{Workers: 1, Detector: detector.Config{Granularity: detector.Dynamic}})
	c := event.GetCols()
	for i := 0; i <= event.DefaultBatchSize; i++ {
		c.Append(event.Rec{Op: event.OpWrite, Tid: 0, Addr: 0x4000 + uint64(i)*8, Size: 8, Seq: uint64(i + 1)})
	}
	p.TakeCols(c)
	if pb := p.pending[0]; pb == nil || len(pb.Recs) != 1 {
		t.Fatalf("oversized batch was not routed: pending %v", pb)
	}
	if res := p.Wait(); res.Stats.Accesses != event.DefaultBatchSize+1 {
		t.Fatalf("accesses = %d, want %d", res.Stats.Accesses, event.DefaultBatchSize+1)
	}
}

// TestTakeColsHandOffZeroAlloc pins the one-worker hand-off: a pooled
// batch handed to the pipeline ships whole to the worker, whose detector
// applies it and puts it back, and once the detector is warm the round
// trip allocates nothing.
func TestTakeColsHandOffZeroAlloc(t *testing.T) {
	if raceDetectorOn {
		t.Skip("pooled batches allocate under the race detector")
	}
	p := New(Options{Workers: 1, Detector: detector.Config{Granularity: detector.Dynamic}})
	defer p.Wait()
	_, _, _, puts := event.PoolCounts()
	take := func(recs []event.Rec) {
		p.TakeCols(toCols(recs))
		if p.pending[0] != nil {
			t.Fatal("batch was routed record by record, not handed off")
		}
		// The worker puts the batch back once it has applied it.
		for puts++; ; runtime.Gosched() {
			if _, _, _, n := event.PoolCounts(); n >= puts {
				break
			}
		}
	}
	take([]event.Rec{{Op: event.OpFork, Tid: 0, Aux: 1}})

	// One lock-ordered ping-pong cycle over a 256-byte range, with a
	// stack access per thread for the router to filter out in place.
	var recs []event.Rec
	for _, tid := range []vc.TID{0, 1} {
		recs = append(recs, event.Rec{Op: event.OpAcquire, Tid: tid, Aux: 3})
		recs = append(recs, event.Rec{Op: event.OpRead, Tid: tid, Addr: event.StackBase + 8, Size: 8, PC: 20})
		for a := uint64(0); a < 256; a += 8 {
			recs = append(recs, event.Rec{Op: event.OpWrite, Tid: tid, Addr: 0x9000 + a, Size: 8, PC: 21})
			recs = append(recs, event.Rec{Op: event.OpRead, Tid: tid, Addr: 0x9000 + a, Size: 8, PC: 22})
		}
		recs = append(recs, event.Rec{Op: event.OpRelease, Tid: tid, Aux: 3})
	}
	take(recs) // warm shadow entries, clocks, bitmaps, freelists
	take(recs)
	if got := testing.AllocsPerRun(20, func() { take(recs) }); got != 0 {
		t.Fatalf("one-worker hand-off: %v allocs/batch, want 0", got)
	}
}
