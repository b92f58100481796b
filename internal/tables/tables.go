// Package tables regenerates the paper's evaluation tables (Tables 1–6)
// from live runs of the fourteen benchmark workloads under every detector
// configuration, plus demonstrations of Figures 1 and 4. Each table
// function returns structured rows (used by tests and benches) and can be
// rendered in the paper's layout.
//
// Runs are cached per (benchmark, configuration), so printing all six
// tables executes each configuration once. Timed configurations run
// Config.TimingRuns times and keep the minimum wall time, which stabilizes
// slowdown factors.
package tables

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/race"
	"repro/workloads"
)

// Config configures the harness.
type Config struct {
	// Scale multiplies every workload's size (default 1, the tables'
	// reference scale).
	Scale int
	// Seed drives the deterministic scheduler.
	Seed int64
	// TimingRuns is how many times timed configurations are run; the
	// minimum wall time is used, since host interference only ever adds
	// time to a deterministic run (default 5).
	TimingRuns int
	// ComparatorMemLimit is the accounted-memory budget for the DRD and
	// Inspector stand-ins; runs exceeding it abort with OOM, reproducing
	// the paper's dedup rows. 0 picks the default calibrated in
	// EXPERIMENTS.md.
	ComparatorMemLimit int64
	// ComparatorTimeout bounds comparator runs in wall time (the paper's
	// ">24h" rows); 0 means no timeout.
	ComparatorTimeout time.Duration
	// Benchmarks restricts the set of benchmarks (nil = all).
	Benchmarks []string
}

// DefaultComparatorMemLimit is the comparator memory budget: scaled from
// the paper's 4 GB machine to the simulation's footprint (the workloads
// are roughly three orders of magnitude smaller than the originals) so
// that — as on the paper's machine — only dedup's startup footprint
// exceeds it. See EXPERIMENTS.md for the calibration.
const DefaultComparatorMemLimit = 4 << 20

// Runner executes and caches detection runs.
type Runner struct {
	cfg   Config
	specs []workloads.Spec
	cache map[string]race.Report
	bases map[string]baseline
}

type baseline struct {
	stats   race.RunStats
	elapsed time.Duration
}

// NewRunner returns a runner for cfg.
func NewRunner(cfg Config) *Runner {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.TimingRuns <= 0 {
		cfg.TimingRuns = 5
	}
	if cfg.ComparatorMemLimit == 0 {
		cfg.ComparatorMemLimit = DefaultComparatorMemLimit
	}
	specs := workloads.All()
	if cfg.Benchmarks != nil {
		var sel []workloads.Spec
		for _, name := range cfg.Benchmarks {
			for _, s := range specs {
				if s.Name == name {
					sel = append(sel, s)
				}
			}
		}
		specs = sel
	}
	return &Runner{
		cfg:   cfg,
		specs: specs,
		cache: make(map[string]race.Report),
		bases: make(map[string]baseline),
	}
}

// Specs returns the benchmarks the runner covers.
func (r *Runner) Specs() []workloads.Spec { return r.specs }

func optsKey(o race.Options) string {
	return fmt.Sprintf("%v/%v/nis=%v/nish=%v/wgr=%v/rs=%d/mem=%d/to=%v/w=%d/me=%d/rem=%s",
		o.Tool, o.Granularity, o.NoInitState, o.NoInitSharing,
		o.WriteGuidedReads, o.ReshareInterval, o.MemLimitBytes, o.Timeout,
		o.Workers, o.MaxEvents, o.Remote) +
		fmt.Sprintf("/clus=%s/bud=%g",
			strings.Join(o.Cluster, ","), o.Budget)
}

// bestDuration returns the minimum of ds: for a deterministic CPU-bound
// run, the fastest observation is the one least disturbed by the host
// (scheduler interference only ever adds time), so ratios of minima are
// the noise-robust slowdown estimate.
func bestDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[0]
}

// Baseline returns the uninstrumented run of the benchmark, timed as the
// minimum over TimingRuns runs.
func (r *Runner) Baseline(s workloads.Spec) baseline {
	if b, ok := r.bases[s.Name]; ok {
		return b
	}
	prog := s.Build(r.cfg.Scale)
	var stats race.RunStats
	times := make([]time.Duration, 0, r.cfg.TimingRuns)
	for i := 0; i < r.cfg.TimingRuns; i++ {
		runtime.GC() // isolate timed runs from each other's garbage
		st, d := race.Baseline(prog, r.cfg.Seed)
		stats = st
		times = append(times, d)
	}
	b := baseline{stats: stats, elapsed: bestDuration(times)}
	r.bases[s.Name] = b
	return b
}

// Report runs (or retrieves) the benchmark under opts. Timing is the
// minimum over TimingRuns runs; all other fields come from the last run
// (identical across runs by determinism).
func (r *Runner) Report(s workloads.Spec, opts race.Options) race.Report {
	opts.Seed = r.cfg.Seed
	key := s.Name + "|" + optsKey(opts)
	if rep, ok := r.cache[key]; ok {
		return rep
	}
	prog := s.Build(r.cfg.Scale)
	var rep race.Report
	times := make([]time.Duration, 0, r.cfg.TimingRuns)
	for i := 0; i < r.cfg.TimingRuns; i++ {
		runtime.GC() // isolate timed runs from each other's garbage
		rep = race.Run(prog, opts)
		times = append(times, rep.Elapsed)
		if rep.TimedOut || rep.OOM {
			break // a DNF run's timing is already its answer
		}
	}
	rep.Elapsed = bestDuration(times)
	r.cache[key] = rep
	return rep
}

// untimed returns the benchmark's report under opts for a lane that reads
// no timing: the cached report when one exists, else one run, left
// uncached because its Elapsed is a single observation rather than the
// minimum Report promises.
func (r *Runner) untimed(s workloads.Spec, opts race.Options) race.Report {
	opts.Seed = r.cfg.Seed
	if rep, ok := r.cache[s.Name+"|"+optsKey(opts)]; ok {
		return rep
	}
	return race.Run(s.Build(r.cfg.Scale), opts)
}

func (r *Runner) ftOpts(g race.Granularity) race.Options {
	return race.Options{Tool: race.FastTrack, Granularity: g}
}

func (r *Runner) comparatorOpts(tool race.Tool) race.Options {
	return race.Options{
		Tool:          tool,
		MemLimitBytes: r.cfg.ComparatorMemLimit,
		Timeout:       r.cfg.ComparatorTimeout,
	}
}

// Slowdown computes instrumented / baseline wall time.
func (r *Runner) Slowdown(s workloads.Spec, rep race.Report) float64 {
	b := r.Baseline(s)
	if b.elapsed <= 0 {
		return 0
	}
	return float64(rep.Elapsed) / float64(b.elapsed)
}

// MemOverhead computes the paper's memory-overhead factor: peak memory of
// the instrumented process over the uninstrumented one. The instrumented
// process holds the application's peak plus the detector's.
func (r *Runner) MemOverhead(s workloads.Spec, rep race.Report) float64 {
	b := r.Baseline(s)
	base := float64(b.stats.PeakHeapBytes)
	if base <= 0 {
		return 0
	}
	return (base + float64(rep.Detector.TotalPeakBytes)) / base
}

// mb renders bytes as MB with one decimal.
func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

func writeTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}
