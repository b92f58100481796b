package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/race"
)

const (
	// setupReps is how many times a run sets its workload up (program
	// mix, servers, readiness probe); setup_s is the median, and the last
	// set-up is the one measured.
	setupReps = 9
	// minPasses is the fewest timed passes a run makes, however short
	// Config.Seconds is.
	minPasses = 3
	// baselineMin and maxBaselineRuns bound the uninstrumented runs that
	// make one pass's baseline for a program (see baseline).
	baselineMin     = 50 * time.Millisecond
	maxBaselineRuns = 8
	// runTimeout abandons one instrumented run (counted as a failure).
	runTimeout = 60 * time.Second
	// maxFailures caps the failure messages a result keeps.
	maxFailures = 20
)

// Config is one benchmark run of one workload.
type Config struct {
	Workload Workload
	// Seed drives every program's scheduler; the same seed gives the same
	// event streams.
	Seed int64
	// Seconds is how long the timed passes run, after one untimed warm-up
	// pass. At least minPasses passes run.
	Seconds float64
	// Passes, when positive, fixes the number of timed passes instead.
	Passes int
	// Scale overrides the workload's program scale (0 keeps it).
	Scale int
	// Trace adds the traced pass and reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	// SpansDir receives <workload>.spans.json from the traced pass; empty
	// writes no file.
	SpansDir string
}

// Header records what a run measured on.
type Header struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Topology   string   `json:"topology"`
	Programs   []string `json:"programs"`
	Scale      int      `json:"scale"`
	Seed       int64    `json:"seed"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	GoVersion  string   `json:"go_version"`
}

// Result is the outcome of one run.
type Result struct {
	Header Header `json:"header"`
	Trace  bool   `json:"trace"`
	// Passes is the number of timed passes.
	Passes int `json:"passes"`
	// Attempted counts every checked detection run (the last set-up's
	// readiness probes, serial references, warm-up, timed and traced
	// runs); Failed those that erred, timed out or reported the wrong
	// races.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []Metric `json:"metrics"`
}

// Correct reports whether every checked run produced the right verdict.
func (r Result) Correct() bool { return r.Failed == 0 }

// Metric returns the named metric and whether the run reported it.
func (r Result) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// progSample is one program's share of one pass.
type progSample struct {
	base, inst float64 // uninstrumented and instrumented wall, seconds
	memOver    float64 // (program peak heap + detector peak) / program peak heap
	found, ref int     // reference races the run reported, and how many exist
	events     uint64
	accesses   uint64
}

// runner carries one run's state between its phases.
type runner struct {
	cfg    Config
	w      Workload
	e      *env
	opts   race.Options
	ref    [][]race.Race // serial reference races per program
	res    Result
	passes [][]progSample
}

// Run sets the workload up, checks the serial references, runs one warm-up
// and the timed passes, and, with Config.Trace, the traced pass. It returns
// an error only when the workload cannot be set up; wrong verdicts are
// counted in the result.
func Run(cfg Config) (Result, error) {
	w := cfg.Workload
	scale := cfg.Scale
	if scale <= 0 {
		scale = w.Scale
	}
	r := &runner{cfg: cfg, w: w}
	r.res = Result{
		Header: Header{
			Workload:   w.Name,
			Why:        w.Why,
			Topology:   w.Describe(),
			Programs:   w.Programs,
			Scale:      scale,
			Seed:       cfg.Seed,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
		},
		Trace: cfg.Trace,
	}

	setups := make([]float64, 0, setupReps)
	var probeFailures []string
	for i := 0; i < setupReps; i++ {
		if r.e != nil {
			r.e.close()
		}
		start := time.Now()
		e, failures, err := setUp(w, scale)
		if err != nil {
			return r.res, err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.e, probeFailures = e, failures
	}
	defer r.e.close()
	r.opts = w.options(cfg.Seed, r.e.addrs)

	var refFailures []string
	r.ref, refFailures = reference(r.e, cfg.Seed)
	r.res.Attempted += 2 * len(r.e.progs) // the last set-up's probes and the references
	for _, f := range append(probeFailures, refFailures...) {
		r.fail("%s", f)
	}

	r.pass() // warm-up: caches, pools and server sessions settle untimed

	var before, after runtime.MemStats
	var rss []float64
	runtime.ReadMemStats(&before)
	start := time.Now()
	for n := 0; ; n++ {
		if cfg.Passes > 0 {
			if n >= cfg.Passes {
				break
			}
		} else if n >= minPasses && time.Since(start).Seconds() >= cfg.Seconds {
			break
		}
		resetPeakRSS()
		r.passes = append(r.passes, r.pass())
		rss = append(rss, peakRSSMiB())
	}
	runtime.ReadMemStats(&after)
	r.res.Passes = len(r.passes)

	m := metricSet{}
	if cfg.Trace {
		r.untracedLayers(m, before, after)
		if err := r.tracedPass(m); err != nil {
			return r.res, err
		}
		r.res.Metrics = m.list(PerLayer)
	} else {
		r.endToEnd(m, setups, rss)
		r.res.Metrics = m.list(EndToEnd)
	}
	return r.res, nil
}

// reference runs every program once on the serial in-process detector:
// the exhaustive reference each instrumented run at this seed is checked
// against. It returns the races per program and why any reference run
// failed.
func reference(e *env, seed int64) ([][]race.Race, []string) {
	refs := make([][]race.Race, len(e.progs))
	var failures []string
	for i, p := range e.progs {
		rep, err := race.RunE(p, race.Options{Granularity: race.Dynamic, Seed: seed, Timeout: runTimeout})
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("%s: serial reference: %v", e.names[i], err))
		case rep.TimedOut:
			failures = append(failures, fmt.Sprintf("%s: serial reference timed out", e.names[i]))
		}
		refs[i] = rep.Races
	}
	return refs, failures
}

// pass runs every program uninstrumented and then instrumented, back to
// back, so both halves of each slowdown ratio see the same machine state.
func (r *runner) pass() []progSample {
	out := make([]progSample, len(r.e.progs))
	for i, p := range r.e.progs {
		st, base := baseline(p, r.cfg.Seed)
		start := time.Now()
		rep, err := race.RunE(p, r.opts)
		inst := time.Since(start)
		r.check(i, rep.Races, rep.TimedOut, err)
		heap := float64(st.PeakHeapBytes)
		out[i] = progSample{
			base:     base,
			inst:     inst.Seconds(),
			memOver:  (heap + float64(rep.Detector.TotalPeakBytes)) / heap,
			found:    overlap(rep.Races, r.ref[i]),
			ref:      len(r.ref[i]),
			events:   st.Events,
			accesses: st.Accesses,
		}
	}
	return out
}

// baseline runs p uninstrumented until the runs add up to baselineMin (at
// most maxBaselineRuns) and returns the program's statistics and the
// median wall time in seconds. A program that runs for a few milliseconds
// would otherwise make its slowdown ratio's denominator the noisiest part
// of the pass.
func baseline(p race.Program, seed int64) (race.RunStats, float64) {
	var st race.RunStats
	var walls []float64
	var total time.Duration
	for len(walls) < maxBaselineRuns && (len(walls) == 0 || total < baselineMin) {
		var d time.Duration
		st, d = race.Baseline(p, seed)
		walls = append(walls, d.Seconds())
		total += d
	}
	return st, median(walls)
}

// check counts one instrumented run of program i and records why it
// failed, if it did: an error, a timeout, or a verdict that is not the
// serial reference's (exact workloads) or not a subset of it (sampled).
func (r *runner) check(i int, got []race.Race, timedOut bool, err error) {
	r.res.Attempted++
	name := r.e.names[i]
	switch {
	case err != nil:
		r.fail("%s: %v", name, err)
	case timedOut:
		r.fail("%s: timed out after %v", name, runTimeout)
	case r.w.Exact() && !sameRaces(got, r.ref[i]):
		r.fail("%s: %d races differ from the serial reference's %d", name, len(got), len(r.ref[i]))
	case !r.w.Exact() && overlap(got, r.ref[i]) != len(got):
		r.fail("%s: %d of %d races are not in the serial reference", name, len(got)-overlap(got, r.ref[i]), len(got))
	}
}

func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	if len(r.res.Failures) < maxFailures {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// sameRaces reports whether a and b hold the same races, in any order.
func sameRaces(a, b []race.Race) bool {
	if len(a) != len(b) {
		return false
	}
	return overlap(a, b) == len(a)
}

// overlap counts the races of got that are in ref, matching each
// reference race at most once.
func overlap(got, ref []race.Race) int {
	left := make(map[race.Race]int, len(ref))
	for _, x := range ref {
		left[x]++
	}
	n := 0
	for _, x := range got {
		if left[x] > 0 {
			left[x]--
			n++
		}
	}
	return n
}

// endToEnd derives the end-to-end metrics from the timed passes.
func (r *runner) endToEnd(m metricSet, setups, rss []float64) {
	// Per program, the median over passes of the paired ratio: each ratio
	// divides by the uninstrumented run made just before it, so machine
	// speed drifting between passes cancels out.
	nprog := len(r.e.progs)
	slow := make([]float64, nprog)
	mem := make([]float64, nprog)
	for i := 0; i < nprog; i++ {
		var paired, over []float64
		for _, p := range r.passes {
			paired = append(paired, p[i].inst/p[i].base)
			over = append(over, p[i].memOver)
		}
		slow[i] = median(paired)
		mem[i] = median(over)
	}
	var slowPass, memPass, recall []float64
	for _, p := range r.passes {
		var s, o []float64
		found, ref := 0, 0
		for _, x := range p {
			s = append(s, x.inst/x.base)
			o = append(o, x.memOver)
			found += x.found
			ref += x.ref
		}
		slowPass = append(slowPass, geomean(s))
		memPass = append(memPass, geomean(o))
		if ref == 0 {
			recall = append(recall, 1)
		} else {
			recall = append(recall, float64(found)/float64(ref))
		}
	}
	metric := func(name string) spec { return specByName(EndToEnd, name) }
	m.putValue(metric("slowdown"), geomean(slow), slowPass)
	m.putValue(metric("mem_overhead"), geomean(mem), memPass)
	m.putSamples(metric("peak_rss_mib"), rss)
	m.putSamples(metric("setup_s"), setups)
	m.putSamples(metric("recall"), recall)
}

// untracedLayers derives the per-layer metrics the untraced timed passes
// measure: the program's own cost and event mix, throughput, and the Go
// runtime's allocation and GC work per pass.
func (r *runner) untracedLayers(m metricSet, before, after runtime.MemStats) {
	var base, rate []float64
	var events, accesses uint64
	for _, p := range r.passes {
		var b, inst float64
		events, accesses = 0, 0
		for _, x := range p {
			b += x.base
			inst += x.inst
			events += x.events
			accesses += x.accesses
		}
		base = append(base, b)
		rate = append(rate, float64(events)/inst)
	}
	layer := func(name string) spec { return specByName(PerLayer, name) }
	m.putSamples(layer("sim.base_s"), base)
	m.put(layer("sim.events"), float64(events))
	m.put(layer("sim.sync_share"), ratio(float64(events-accesses), float64(events)))
	m.putSamples(layer("race.events_per_s"), rate)
	n := float64(len(r.passes))
	m.put(layer("go.alloc_mib"), float64(after.TotalAlloc-before.TotalAlloc)/n/(1<<20))
	m.put(layer("go.gc_cycles"), float64(after.NumGC-before.NumGC)/n)
}

// instWall returns the median over timed passes of the summed
// instrumented wall time — the untraced counterpart of the traced pass.
func (r *runner) instWall() float64 {
	var walls []float64
	for _, p := range r.passes {
		var w float64
		for _, x := range p {
			w += x.inst
		}
		walls = append(walls, w)
	}
	return median(walls)
}

// resetPeakRSS restarts the kernel's peak-resident-set tracking (VmHWM)
// from the current resident set, so each pass reads its own peak. Where
// the reset is unsupported, VmHWM keeps the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB returns the process's peak resident set (VmHWM) since start
// or the last resetPeakRSS, or the Go runtime's total obtained memory
// where /proc is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
