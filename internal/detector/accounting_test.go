package detector

import (
	"testing"

	"repro/internal/event"
	"repro/internal/progfuzz"
	"repro/internal/sim"
	"repro/workloads"
)

// bitmapBytesSlow recomputes the bitmaps' retained storage from scratch,
// the oracle for the running bitmapBytes total.
func (d *Detector) bitmapBytesSlow() int64 {
	var n int64
	for _, b := range d.bitmaps {
		if b != nil {
			n += b.Bytes()
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

// checkBitmapTotal replays recs into a detector per granularity and
// compares the running bitmap total with a full recomputation after every
// event.
func checkBitmapTotal(t *testing.T, name string, recs []event.Rec) {
	t.Helper()
	for _, g := range []Granularity{Byte, Word, Dynamic} {
		d := New(Config{Granularity: g})
		for i := range recs {
			event.ApplyRec(d, &recs[i])
			if got, want := d.bitmapBytes, d.bitmapBytesSlow(); got != want {
				t.Fatalf("%s/%v: event %d (%v): running bitmap total %d, recomputed %d",
					name, g, i, recs[i].Op, got, want)
			}
		}
		if st := d.Stats(); st.BitmapPeakBytes != d.bitmapBytesSlow() {
			t.Fatalf("%s/%v: BitmapPeakBytes %d, bitmaps hold %d",
				name, g, st.BitmapPeakBytes, d.bitmapBytesSlow())
		}
	}
}

// TestBitmapRunningTotal is the oracle for the O(1) bitmap accounting
// behind trackTotal, over random programs and every workload.
func TestBitmapRunningTotal(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		prog, _ := progfuzz.Generate(progfuzz.Config{
			Threads: 2 + int(seed%4), LockedVars: 4, PrivateVars: 2, RacyVars: 2,
			OpsPerThread: 200, Barriers: seed%2 == 0, Seed: seed,
		})
		checkBitmapTotal(t, "progfuzz", record(prog, seed))
	}
	for _, w := range workloads.All() {
		checkBitmapTotal(t, w.Name, record(w.Program(), 42))
	}
}
