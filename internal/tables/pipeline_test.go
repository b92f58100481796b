package tables

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/wire"
)

// TestPipelineBenchRows checks the sweep produces one row per worker count
// per benchmark, serial rows have speedup 1, and the race count is
// constant across the sweep (the pipeline's equivalence guarantee).
func TestPipelineBenchRows(t *testing.T) {
	r := NewRunner(Config{Benchmarks: []string{"streamcluster", "pbzip2"}, TimingRuns: 1, Seed: 42})
	sweep := []int{0, 2, 4}
	rows := r.PipelineBench(sweep)
	if want := len(r.Specs()) * len(sweep); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	races := map[string]int{}
	for _, row := range rows {
		if row.Workers == 0 {
			if row.Speedup != 1 {
				t.Errorf("%s serial row speedup = %v, want 1", row.Program, row.Speedup)
			}
			races[row.Program] = row.Races
		} else {
			if row.Races != races[row.Program] {
				t.Errorf("%s workers=%d races = %d, serial found %d",
					row.Program, row.Workers, row.Races, races[row.Program])
			}
			if row.DispatchWaitP50Ns == 0 || row.DispatchWaitP99Ns < row.DispatchWaitP50Ns {
				t.Errorf("%s workers=%d dispatch-wait quantiles p50=%d p99=%d",
					row.Program, row.Workers, row.DispatchWaitP50Ns, row.DispatchWaitP99Ns)
			}
		}
		if row.Seconds <= 0 || row.EventsPerSec <= 0 {
			t.Errorf("%s workers=%d has non-positive timing (%v s, %v ev/s)",
				row.Program, row.Workers, row.Seconds, row.EventsPerSec)
		}
	}
}

// TestWritePipelineJSON checks the emitted document round-trips and carries
// the config header.
func TestWritePipelineJSON(t *testing.T) {
	r := NewRunner(Config{Benchmarks: []string{"streamcluster"}, TimingRuns: 1, Seed: 42})
	var buf bytes.Buffer
	if err := r.WritePipelineJSON(&buf, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	var doc PipelineBenchJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Config.Seed != 42 || doc.Config.GOMAXPROCS < 1 {
		t.Fatalf("bad config header: %+v", doc.Config)
	}
	if len(doc.Rows) != 2 { // serial + workers=2
		t.Fatalf("got %d rows, want 2", len(doc.Rows))
	}
}

// TestWireCodecBenchCompression is the bench-smoke regression gate for the
// columnar codec: on the realistic locality stream at the default batch
// size, the frame must be at least 4x smaller than the same batch framed
// at fixed width (HeaderSize + 2048 x wire.RecSize bytes), and the row's
// throughputs must be populated.
func TestWireCodecBenchCompression(t *testing.T) {
	rows := WireCodecBench([]int{2048})
	if len(rows) != 1 || rows[0].BatchRecs != 2048 {
		t.Fatalf("got rows %+v, want one 2048-record row", rows)
	}
	row := rows[0]
	if row.EncodeEventsPerSec <= 0 || row.DecodeEventsPerSec <= 0 {
		t.Errorf("non-positive throughput %+v", row)
	}
	fixed := wire.HeaderSize + row.BatchRecs*wire.RecSize
	if 4*row.FrameBytes > fixed {
		t.Errorf("columnar frame %d B vs fixed width %d B: less than the promised 4x (%.2f B/event)",
			row.FrameBytes, fixed, row.BytesPerEvent)
	}
	if want := float64(row.FrameBytes) / float64(fixed); row.VsFixedWidth != want {
		t.Errorf("vs_fixed_width = %v, want %v", row.VsFixedWidth, want)
	}
}
