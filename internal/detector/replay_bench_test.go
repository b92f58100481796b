package detector

import (
	"testing"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/workloads"
)

// replayPrograms are the programs of the benchmark's serial workload
// (sharing-serial), captured at its scale and seed.
var replayPrograms = []string{"facesim", "fluidanimate", "streamcluster", "dedup"}

const (
	replayScale = 8
	replaySeed  = 42
)

// captureStream runs program name once and returns its event stream.
func captureStream(b *testing.B, name string) []event.Rec {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var recs []event.Rec
	enc := &event.Encoder{Flush: func(bt *event.Batch) {
		recs = append(recs, bt.Recs...)
		event.PutBatch(bt)
	}}
	sim.Run(spec.Build(replayScale), enc, sim.Options{Seed: replaySeed})
	enc.Close()
	return recs
}

// BenchmarkDetectorReplay measures the detector alone: each program's
// stream is captured once and replayed through a fresh dynamic-granularity
// detector per iteration, so the scheduler and the encoder stay out of the
// timing. ns/event is the replay time per record, sync events included.
func BenchmarkDetectorReplay(b *testing.B) {
	for _, name := range replayPrograms {
		var recs []event.Rec // captured on first use, dropped after the program
		b.Run(name, func(b *testing.B) {
			if recs == nil {
				recs = captureStream(b, name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := New(Config{Granularity: Dynamic})
				for j := range recs {
					event.ApplyRec(d, &recs[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/event")
		})
	}
}
