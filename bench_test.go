// Benchmarks regenerating the paper's evaluation, one benchmark function
// per table and figure. Each reports the table's key quantities through
// b.ReportMetric, so `go test -bench=. -benchmem` prints the reproduction
// numbers next to the timing. cmd/benchtables renders the same data in the
// paper's full layout over all fourteen workloads; the benches run a
// representative subset per iteration to stay inside normal bench budgets
// (use -bench-workloads=all to sweep everything).
package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/tables"
	"repro/internal/vc"
	"repro/internal/wire"
	"repro/race"
	"repro/workloads"
)

var benchWorkloads = flag.String("bench-workloads", "subset",
	`workload set for table benches: "subset" or "all"`)

// benchSet returns the workloads a table bench sweeps.
func benchSet() []workloads.Spec {
	if *benchWorkloads == "all" {
		return workloads.All()
	}
	var out []workloads.Spec
	for _, name := range []string{"hmmsearch", "ffmpeg", "pbzip2", "streamcluster"} {
		s, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

func runAll(b *testing.B, specs []workloads.Spec, opts race.Options) (accesses uint64, reps []race.Report) {
	for _, s := range specs {
		rep := race.Run(s.Program(), opts)
		accesses += rep.Run.Accesses
		reps = append(reps, rep)
	}
	return accesses, reps
}

// BenchmarkTable1 regenerates Table 1's core comparison: FastTrack at
// byte, word and dynamic granularity over the benchmark suite. The
// reported metrics are the per-granularity race totals; the ns/op ratios
// between the sub-benchmarks are the slowdown relationships of Table 1.
func BenchmarkTable1(b *testing.B) {
	for _, g := range []race.Granularity{race.Byte, race.Word, race.Dynamic} {
		b.Run(g.String(), func(b *testing.B) {
			var accesses uint64
			races := 0
			for i := 0; i < b.N; i++ {
				n, reps := runAll(b, benchSet(), race.Options{Granularity: g, Seed: 42})
				accesses = n
				races = 0
				for _, r := range reps {
					races += len(r.Races)
				}
			}
			b.ReportMetric(float64(accesses)/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e3, "Maccesses/s")
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkTable2 regenerates Table 2's memory components per granularity.
func BenchmarkTable2(b *testing.B) {
	for _, g := range []race.Granularity{race.Byte, race.Word, race.Dynamic} {
		b.Run(g.String(), func(b *testing.B) {
			var hash, vcb, bitmap, total int64
			for i := 0; i < b.N; i++ {
				hash, vcb, bitmap, total = 0, 0, 0, 0
				_, reps := runAll(b, benchSet(), race.Options{Granularity: g, Seed: 42})
				for _, r := range reps {
					hash += r.Detector.HashPeakBytes
					vcb += r.Detector.VCPeakBytes
					bitmap += r.Detector.BitmapPeakBytes
					total += r.Detector.TotalPeakBytes
				}
			}
			b.ReportMetric(float64(hash)/1024, "hashKB")
			b.ReportMetric(float64(vcb)/1024, "vcKB")
			b.ReportMetric(float64(bitmap)/1024, "bitmapKB")
			b.ReportMetric(float64(total)/1024, "totalKB")
		})
	}
}

// BenchmarkTable3 regenerates Table 3: peak vector-clock counts and the
// average sharing under dynamic granularity.
func BenchmarkTable3(b *testing.B) {
	for _, g := range []race.Granularity{race.Byte, race.Dynamic} {
		b.Run(g.String(), func(b *testing.B) {
			var clocks int64
			sharing := 0.0
			for i := 0; i < b.N; i++ {
				clocks, sharing = 0, 0
				_, reps := runAll(b, benchSet(), race.Options{Granularity: g, Seed: 42})
				for _, r := range reps {
					clocks += r.Detector.MaxVectorClocks
					sharing += r.Detector.AvgSharing
				}
				sharing /= float64(len(reps))
			}
			b.ReportMetric(float64(clocks), "peakVCs")
			b.ReportMetric(sharing, "avgSharing")
		})
	}
}

// BenchmarkTable4 regenerates Table 4: the same-epoch access percentage
// that explains the granularity speedups.
func BenchmarkTable4(b *testing.B) {
	for _, g := range []race.Granularity{race.Byte, race.Word, race.Dynamic} {
		b.Run(g.String(), func(b *testing.B) {
			pct := 0.0
			for i := 0; i < b.N; i++ {
				var acc, same uint64
				_, reps := runAll(b, benchSet(), race.Options{Granularity: g, Seed: 42})
				for _, r := range reps {
					acc += r.Detector.Accesses
					same += r.Detector.SameEpoch
				}
				pct = 100 * float64(same) / float64(acc)
			}
			b.ReportMetric(pct, "sameEpoch%")
		})
	}
}

// BenchmarkTable5 regenerates Table 5's state-machine ablations: peak
// clock nodes without/with first-epoch sharing and races without/with the
// Init state.
func BenchmarkTable5(b *testing.B) {
	variants := []struct {
		name string
		opts race.Options
	}{
		{"full", race.Options{Granularity: race.Dynamic, Seed: 42}},
		{"no-init-sharing", race.Options{Granularity: race.Dynamic, NoInitSharing: true, Seed: 42}},
		{"no-init-state", race.Options{Granularity: race.Dynamic, NoInitState: true, Seed: 42}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var totalMem int64
			races := 0
			for i := 0; i < b.N; i++ {
				totalMem, races = 0, 0
				_, reps := runAll(b, benchSet(), v.opts)
				for _, r := range reps {
					totalMem += r.Detector.TotalPeakBytes
					races += len(r.Races)
				}
			}
			b.ReportMetric(float64(totalMem)/1024, "memKB")
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkTable6 regenerates Table 6: the tool comparison (DRD-style
// segments, Inspector-style hybrid, FastTrack with dynamic granularity).
func BenchmarkTable6(b *testing.B) {
	toolSet := []struct {
		name string
		opts race.Options
	}{
		{"drd", race.Options{Tool: race.DRD, Seed: 42}},
		{"inspector", race.Options{Tool: race.InspectorXE, Seed: 42}},
		{"fasttrack-dynamic", race.Options{Tool: race.FastTrack, Granularity: race.Dynamic, Seed: 42}},
	}
	for _, tl := range toolSet {
		b.Run(tl.name, func(b *testing.B) {
			races := 0
			var mem int64
			for i := 0; i < b.N; i++ {
				races, mem = 0, 0
				_, reps := runAll(b, benchSet(), tl.opts)
				for _, r := range reps {
					races += len(r.Races)
					mem += r.Detector.TotalPeakBytes
				}
			}
			b.ReportMetric(float64(races), "races")
			b.ReportMetric(float64(mem)/1024, "memKB")
		})
	}
}

// BenchmarkFigure1 measures the DJIT+ example trace of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Figure1(); len(out) == 0 {
			b.Fatal("empty demo")
		}
	}
}

// BenchmarkFigure2 measures the Figure 2 state-machine walkthrough.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Figure2(); len(out) == 0 {
			b.Fatal("empty demo")
		}
	}
}

// BenchmarkFigure3ReadPath measures the memoryRead instrumentation path of
// Figure 3 in isolation: one million same-epoch reads (the fast path) and
// distinct-location reads (the slow path) per granularity.
func BenchmarkFigure3ReadPath(b *testing.B) {
	for _, g := range []race.Granularity{race.Byte, race.Dynamic} {
		b.Run(g.String()+"/same-epoch", func(b *testing.B) {
			prog := race.Program{Name: "hot", Main: func(t *race.Thread) {
				for i := 0; i < b.N; i++ {
					t.Read(0x1000, 4)
				}
			}}
			race.Run(prog, race.Options{Granularity: g})
		})
		b.Run(g.String()+"/fresh-locations", func(b *testing.B) {
			prog := race.Program{Name: "cold", Main: func(t *race.Thread) {
				for i := 0; i < b.N; i++ {
					t.Read(0x1000+uint64(i)*4, 4)
				}
			}}
			race.Run(prog, race.Options{Granularity: g})
		})
	}
}

// BenchmarkFigure4Indexing measures the shadow indexing structure through
// the public API: a word-heavy sweep (sparse entries) versus a byte-access
// sweep (expanded entries).
func BenchmarkFigure4Indexing(b *testing.B) {
	b.Run("word-aligned", func(b *testing.B) {
		prog := race.Program{Name: "words", Main: func(t *race.Thread) {
			for i := 0; i < b.N; i++ {
				t.Write(0x1000+uint64(i%4096)*4, 4)
			}
		}}
		race.Run(prog, race.Options{Granularity: race.Byte})
	})
	b.Run("byte-unaligned", func(b *testing.B) {
		prog := race.Program{Name: "bytes", Main: func(t *race.Thread) {
			for i := 0; i < b.N; i++ {
				t.Write(0x1000+uint64(i%4096)*4+1, 1)
			}
		}}
		race.Run(prog, race.Options{Granularity: race.Byte})
	})
}

// pipelineBaseline records the serial (Workers=0) throughput of the last
// BenchmarkPipeline sweep so the parallel sub-benchmarks can report their
// speedup relative to it. Sub-benchmarks run in declaration order, so the
// baseline is always populated first.
var pipelineBaseline float64

// BenchmarkPipeline sweeps the sharded detection pipeline's worker count
// over the benchmark suite at dynamic granularity. Workers=0 is the serial
// detector (the baseline); each sub-benchmark reports absolute event
// throughput (Mevents/s) and its speedup over the serial run. Parallel
// speedup requires GOMAXPROCS ≥ workers+1 (the execution engine itself
// occupies one core); on a single-core runner the sweep degenerates to
// measuring transport overhead, which is itself a useful number.
func BenchmarkPipeline(b *testing.B) {
	for _, workers := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				events = 0
				for _, s := range benchSet() {
					rep := race.Run(s.Program(), race.Options{
						Granularity: race.Dynamic, Seed: 42, Workers: workers,
					})
					events += rep.Run.Events
				}
			}
			perSec := float64(events) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(perSec/1e6, "Mevents/s")
			if workers == 0 {
				pipelineBaseline = perSec
			} else if pipelineBaseline > 0 {
				b.ReportMetric(perSec/pipelineBaseline, "speedup")
			}
		})
	}
}

// telemetryBaseline records the disabled-telemetry throughput per worker
// count of the last BenchmarkTelemetryOverhead sweep so the enabled
// sub-benchmarks can report the relative overhead. Sub-benchmarks run in
// declaration order, so "disabled" always populates its entry before the
// matching "enabled" reads it.
var telemetryBaseline = map[int]float64{}

// BenchmarkTelemetryOverhead measures the cost of the telemetry layer in
// both of its states over the benchmark suite at dynamic granularity:
//
//	disabled — Options.Telemetry nil, the default. Every instrumented
//	           site still executes its nil-receiver counter call, so this
//	           sub-benchmark IS the regression guard for the "disabled is
//	           free" contract: its throughput must stay within a few
//	           percent of the pre-instrumentation BenchmarkPipeline.
//	enabled  — a live registry attached; counters, gauges and latency
//	           histograms all record.
//
// Workers=0 puts every increment on the execution thread's critical
// path; workers=2 additionally exercises the per-shard counters, the
// queue-depth gauge and the batch latency histograms.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, workers := range []int{0, 2} {
		for _, enabled := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/disabled", workers)
			if enabled {
				name = fmt.Sprintf("workers=%d/enabled", workers)
			}
			b.Run(name, func(b *testing.B) {
				var events uint64
				for i := 0; i < b.N; i++ {
					events = 0
					opts := race.Options{Granularity: race.Dynamic, Seed: 42, Workers: workers}
					if enabled {
						opts.Telemetry = race.NewTelemetry()
					}
					for _, s := range benchSet() {
						rep := race.Run(s.Program(), opts)
						events += rep.Run.Events
					}
				}
				perSec := float64(events) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(perSec/1e6, "Mevents/s")
				if !enabled {
					telemetryBaseline[workers] = perSec
				} else if base := telemetryBaseline[workers]; base > 0 {
					b.ReportMetric(100*(base-perSec)/base, "overhead%")
				}
			})
		}
	}
}

// BenchmarkWriteGuidedReads is the ablation bench for the Section VII
// future-work extension implemented here.
func BenchmarkWriteGuidedReads(b *testing.B) {
	for _, guided := range []bool{false, true} {
		name := "plain"
		if guided {
			name = "guided"
		}
		b.Run(name, func(b *testing.B) {
			var comparisons uint64
			for i := 0; i < b.N; i++ {
				comparisons = 0
				_, reps := runAll(b, benchSet(), race.Options{
					Granularity: race.Dynamic, WriteGuidedReads: guided, Seed: 42,
				})
				for _, r := range reps {
					comparisons += r.Detector.SharingComparisons
				}
			}
			b.ReportMetric(float64(comparisons), "comparisons")
		})
	}
}

// BenchmarkWireEncodeDecode measures the remote-detection wire codec: how
// fast an event batch is framed (AppendBatchFrame) and decoded back into a
// pooled columnar batch (ReadFrame + DecodeColumnarCols). The encode and
// decode halves are measured separately because they run on different
// machines in a real deployment (client vs racedetectd); both report
// events/s and MB/s.
func BenchmarkWireEncodeDecode(b *testing.B) {
	for _, n := range []int{64, event.DefaultBatchSize, 8192} {
		batch := &event.Batch{Recs: make([]event.Rec, n)}
		for i := range batch.Recs {
			op := event.OpRead
			if i%3 == 0 {
				op = event.OpWrite
			}
			batch.Recs[i] = event.Rec{
				Op: op, Tid: vc.TID(i % 8), Addr: 0x10000 + uint64(i*8),
				Size: 4, PC: event.PC(i), Seq: uint64(i),
			}
		}
		frame := wire.AppendBatchFrame(nil, wire.Header{Session: 1}, batch)

		b.Run(fmt.Sprintf("encode/recs=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			buf := make([]byte, 0, len(frame))
			for i := 0; i < b.N; i++ {
				buf = wire.AppendBatchFrame(buf[:0], wire.Header{Session: 1}, batch)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
		b.Run(fmt.Sprintf("decode/recs=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			rd := bytes.NewReader(frame)
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				_, payload, err := wire.NewReader(rd, 0).ReadFrame()
				if err != nil {
					b.Fatal(err)
				}
				got, err := wire.DecodeColumnarCols(payload)
				if err != nil {
					b.Fatal(err)
				}
				event.PutCols(got)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}
