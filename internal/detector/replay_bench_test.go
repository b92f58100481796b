package detector

import (
	"testing"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/workloads"
)

// replayPrograms are the programs of the benchmark's serial workload
// (sharing-serial), captured at its scale and seed.
var replayPrograms = []string{"facesim", "fluidanimate", "streamcluster", "dedup"}

// remotePrograms are the programs of the benchmark's remote workload
// (gosync-remote), whose server sessions always attach a registry.
var remotePrograms = []string{"fanin", "pipedag", "workerpool"}

const (
	replayScale = 8
	remoteScale = 24
	replaySeed  = 42
)

// captureStream runs program name once at scale and returns its event
// stream.
func captureStream(b *testing.B, name string, scale int) []event.Rec {
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
	sim.Run(spec.Build(scale), enc, sim.Options{Seed: replaySeed})
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
				recs = captureStream(b, name, replayScale)
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

// BenchmarkDetectorReplayRegistry measures what an attached telemetry
// registry costs the detector: each remote program's stream is replayed
// as in BenchmarkDetectorReplay through a detector without Metrics
// (none) and one publishing to a fresh registry (registry).
func BenchmarkDetectorReplayRegistry(b *testing.B) {
	for _, name := range remotePrograms {
		var recs []event.Rec
		for _, withReg := range []bool{false, true} {
			variant := "none"
			if withReg {
				variant = "registry"
			}
			b.Run(name+"/"+variant, func(b *testing.B) {
				if recs == nil {
					recs = captureStream(b, name, remoteScale)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := Config{Granularity: Dynamic}
					if withReg {
						cfg.Metrics = NewMetrics(telemetry.New())
					}
					d := New(cfg)
					for j := range recs {
						event.ApplyRec(d, &recs[j])
					}
					d.Stats()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/event")
			})
		}
	}
}
