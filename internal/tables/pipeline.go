package tables

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/telemetry"
	"repro/race"
	"repro/workloads"
)

// DefaultPipelineWorkers is the worker sweep the pipeline bench covers:
// serial (0), single background worker (transport cost in isolation), then
// powers of two.
var DefaultPipelineWorkers = []int{0, 1, 2, 4, 8}

// PipelineRow is one (benchmark, worker count) cell of the
// sharded-pipeline throughput sweep.
type PipelineRow struct {
	Program string `json:"program"`
	// Workers is the detection worker count (0 = serial detector on the
	// execution thread).
	Workers int `json:"workers"`
	// Seconds is the best wall time of the instrumented run, including
	// draining the workers.
	Seconds float64 `json:"seconds"`
	// EventsPerSec is total engine events divided by Seconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is EventsPerSec relative to the same benchmark's serial
	// (Workers = 0) row.
	Speedup float64 `json:"speedup"`
	// DispatchWaitP50Ns / DispatchWaitP99Ns are quantile upper bounds of
	// the router's per-batch blocking time in the worker-queue send.
	DispatchWaitP50Ns uint64 `json:"dispatch_wait_p50_ns,omitempty"`
	DispatchWaitP99Ns uint64 `json:"dispatch_wait_p99_ns,omitempty"`
	// RingParks counts producer+consumer parks: ships that found a worker
	// queue full plus worker receives that found it empty
	// (pipeline_ring_parks_total).
	RingParks uint64 `json:"ring_parks,omitempty"`
	// Races is the merged race count — equal across the sweep by the
	// pipeline's equivalence guarantee, recorded so regressions are visible
	// in the JSON diff.
	Races int `json:"races"`
}

// pipelineCell measures one (benchmark, workers) cell: best
// wall time over the configured timing runs, with the dispatch-wait
// histogram of the final run (the distribution is stable across runs of a
// deterministic workload; the final run avoids mixing warm-up noise in).
func (r *Runner) pipelineCell(s workloads.Spec, w int) PipelineRow {
	prog := s.Build(r.cfg.Scale)
	opts := race.Options{
		Tool:        race.FastTrack,
		Granularity: race.Dynamic,
		Seed:        r.cfg.Seed,
		Workers:     w,
	}
	var (
		rep race.Report
		reg *telemetry.Registry
	)
	times := make([]time.Duration, 0, r.cfg.TimingRuns)
	for i := 0; i < r.cfg.TimingRuns; i++ {
		runtime.GC() // isolate timed runs from each other's garbage
		if w > 0 {
			reg = telemetry.New()
			opts.Telemetry = reg
		}
		rep = race.Run(prog, opts)
		times = append(times, rep.Elapsed)
	}
	row := PipelineRow{
		Program: s.Name,
		Workers: w,
		Seconds: bestDuration(times).Seconds(),
		Races:   len(rep.Races),
	}
	if row.Seconds > 0 {
		row.EventsPerSec = float64(rep.Run.Events) / row.Seconds
	}
	if w > 0 {
		snap := reg.HistogramValue("pipeline_dispatch_wait_ns")
		row.DispatchWaitP50Ns = snap.Quantile(0.50)
		row.DispatchWaitP99Ns = snap.Quantile(0.99)
		row.RingParks = reg.CounterValue("pipeline_ring_parks_total")
	}
	return row
}

// PipelineBench sweeps worker counts over the runner's benchmarks at
// dynamic granularity. Rows are grouped per benchmark in sweep order, the
// serial row first.
func (r *Runner) PipelineBench(workerCounts []int) []PipelineRow {
	if len(workerCounts) == 0 {
		workerCounts = DefaultPipelineWorkers
	}
	var rows []PipelineRow
	for _, s := range r.specs {
		serialEPS := 0.0
		for _, w := range workerCounts {
			row := r.pipelineCell(s, w)
			if w == 0 {
				serialEPS = row.EventsPerSec
			}
			if serialEPS > 0 {
				row.Speedup = row.EventsPerSec / serialEPS
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PipelineBenchJSON is the machine-readable BENCH_pipeline.json document.
type PipelineBenchJSON struct {
	Config struct {
		Scale      int   `json:"scale"`
		Seed       int64 `json:"seed"`
		GOMAXPROCS int   `json:"gomaxprocs"`
	} `json:"config"`
	Rows []PipelineRow `json:"rows"`
}

// WritePipelineJSON runs the worker sweep and writes BENCH_pipeline.json.
// GOMAXPROCS is recorded because the sweep's speedups are only meaningful
// relative to the cores available: with GOMAXPROCS=1 the rows measure
// transport overhead, not parallel speedup.
func (r *Runner) WritePipelineJSON(w io.Writer, workerCounts []int) error {
	var out PipelineBenchJSON
	out.Config.Scale = r.cfg.Scale
	out.Config.Seed = r.cfg.Seed
	out.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	out.Rows = r.PipelineBench(workerCounts)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
