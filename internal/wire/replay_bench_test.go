package wire

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/workloads"
)

// replayPrograms are the programs of the benchmark's remote workload
// (gosync-remote), captured at its scale and seed.
var replayPrograms = []string{"fanin", "pipedag", "workerpool"}

const (
	replayScale = 24
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

// BenchmarkWireReplay measures the remote path's codec alone on each
// program's captured stream, cut into DefaultBatchSize batches as the
// client cuts it. encode-ns/event feeds every record through a
// ColumnEncoder and frames each batch into a reused buffer, as the
// client's Sink methods and flush do; decode-ns/event decodes every
// payload with DecodeColumnarColsInto into a reused Cols, as a server
// connection does.
func BenchmarkWireReplay(b *testing.B) {
	for _, name := range replayPrograms {
		var recs []event.Rec // captured on first use, dropped after the program
		b.Run(name, func(b *testing.B) {
			if recs == nil {
				recs = captureStream(b, name)
			}
			var payloads [][]byte
			for lo := 0; lo < len(recs); lo += event.DefaultBatchSize {
				hi := min(lo+event.DefaultBatchSize, len(recs))
				payloads = append(payloads, AppendColumnar(nil, recs[lo:hi]))
			}
			var e ColumnEncoder
			var frame []byte
			cols := &event.Cols{}
			var encode, decode time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for j := range recs {
					e.Append(recs[j])
					if e.Len() == event.DefaultBatchSize || j == len(recs)-1 {
						frame = e.AppendFrame(frame[:0], Header{Seq: uint64(j)}, 0, 0)
						e.Reset()
					}
				}
				mid := time.Now()
				for _, p := range payloads {
					cols.Reset()
					if err := DecodeColumnarColsInto(p, cols); err != nil {
						b.Fatal(err)
					}
				}
				encode += mid.Sub(start)
				decode += time.Since(mid)
			}
			n := float64(b.N * len(recs))
			b.ReportMetric(float64(encode.Nanoseconds())/n, "encode-ns/event")
			b.ReportMetric(float64(decode.Nanoseconds())/n, "decode-ns/event")
		})
	}
}
