package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/workloads"
)

// captureRecs runs prog once and captures its full event stream as records.
func captureRecs(t *testing.T, prog sim.Program, seed int64) []event.Rec {
	t.Helper()
	var recs []event.Rec
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		recs = append(recs, b.Recs...)
		event.PutBatch(b)
	}}
	sim.Run(prog, enc, sim.Options{Seed: seed})
	enc.Close()
	return recs
}

// TestApplyColsMatchesSink feeds one captured event stream into a
// three-worker pipeline both ways — record-at-a-time through the Sink
// interface and in columnar batches through TakeCols, whose multi-worker
// routing fallback replays each batch into the Sink methods — and requires
// identical results: same race set, same access statistics, same event
// count.
func TestApplyColsMatchesSink(t *testing.T) {
	for _, name := range []string{"streamcluster", "canneal"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := captureRecs(t, spec.Program(), 42)
		for _, g := range []detector.Granularity{detector.Byte, detector.Word, detector.Dynamic} {
			cfg := detector.Config{Granularity: g}

			ref := New(Options{Workers: 3, Detector: cfg})
			for i := range recs {
				event.ApplyRec(ref, &recs[i])
			}
			refRes := ref.Wait()

			col := New(Options{Workers: 3, Detector: cfg})
			for lo := 0; lo < len(recs); lo += 512 {
				hi := lo + 512
				if hi > len(recs) {
					hi = len(recs)
				}
				c := event.GetCols()
				for _, r := range recs[lo:hi] {
					c.Append(r)
				}
				col.TakeCols(c)
			}
			colRes := col.Wait()

			if want, got := normalize(refRes.Races), normalize(colRes.Races); !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: race sets differ\nsink: %v\ncols: %v", name, g, want, got)
			}
			if refRes.Stats.Accesses != colRes.Stats.Accesses ||
				refRes.Stats.SameEpoch != colRes.Stats.SameEpoch ||
				refRes.Stats.NonShared != colRes.Stats.NonShared {
				t.Errorf("%s/%s: stats differ: sink acc=%d same=%d ns=%d, cols acc=%d same=%d ns=%d",
					name, g, refRes.Stats.Accesses, refRes.Stats.SameEpoch, refRes.Stats.NonShared,
					colRes.Stats.Accesses, colRes.Stats.SameEpoch, colRes.Stats.NonShared)
			}
			if refRes.Events != colRes.Events {
				t.Errorf("%s/%s: event counts differ: %d vs %d", name, g, refRes.Events, colRes.Events)
			}
		}
	}
}
