package sampling

import (
	"testing"

	"repro/internal/event"
)

// replayPrograms are the programs of the benchmark's always-on workload
// (alwayson-cluster), captured at its scale and seed.
var replayPrograms = []string{"facesim", "canneal", "pbzip2", "x264"}

const replayScale = 12

// BenchmarkSamplerReplay measures the sampler alone: each program's stream
// is captured once and replayed through a fresh sampler over event.Nop at a
// static 5% budget per iteration, so the scheduler, the encoder and the
// detector stay out of the timing. ns/event is the replay time per record,
// sync events included; forwarded is the fraction of accesses forwarded.
func BenchmarkSamplerReplay(b *testing.B) {
	for _, name := range replayPrograms {
		var recs []event.Rec // captured on first use, dropped after the program
		b.Run(name, func(b *testing.B) {
			if recs == nil {
				recs = captureStream(b, name, replayScale)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var s *Detector
			for i := 0; i < b.N; i++ {
				s = New(event.Nop{}, Options{RatePermille: 50})
				for j := range recs {
					event.ApplyRec(s, &recs[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/event")
			f, sk := s.Counts()
			b.ReportMetric(float64(f)/float64(f+sk), "forwarded")
		})
	}
}
