// Command racebench runs the repository benchmark: four workloads, each a
// program mix on one detection topology, measured end to end (the paper's
// Table 1 slowdown and Table 2 memory overhead) and layer by layer (a
// traced pass whose spans it writes for `racectl spans`).
//
//	racebench -seed 42                       # every workload, each in a child process
//	racebench -workload gosync-remote -seed 7 -seconds 20 -trace 0
//	racebench -seed 42 -out a.json; racebench -seed 42 -out b.json
//	racebench -compare a.json b.json         # apply BENCHMARK.json's bounds
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// holding the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1. The exit code is 1 when any checked run reported wrong
// races, 2 on a usage or set-up error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("racebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 42, "scheduler seed; the same seed gives the same event streams")
	seconds := fs.Float64("seconds", 20, "how long each run's timed passes last")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics, 0 the end-to-end metrics")
	out := fs.String("out", "", "append each run's full result (metrics with quartiles) as a JSON line to this file")
	spans := fs.String("spans", "bench/out", "directory the traced pass writes <workload>.spans.json to")
	compare := fs.Bool("compare", false, "compare two -out files: racebench -compare a.json b.json")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds (for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "racebench: -compare needs two result files")
			return 2
		}
		return runCompare(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "racebench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "racebench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	case *workload == "":
		return runAll(*seed, *seconds, *out, *spans, stdout, stderr)
	}
	w, err := bench.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	cfg := bench.Config{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SpansDir: *spans}
	res, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	printResult(stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "racebench:", err)
			return 2
		}
	}
	if err := printResultLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	if !res.Correct() {
		return 1
	}
	return 0
}

// printResult writes the human-readable header and metric table.
func printResult(w io.Writer, r bench.Result) {
	h := r.Header
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s): %s @ scale %d, seed %d\n", h.Workload, h.Topology, strings.Join(h.Programs, ","), h.Scale, h.Seed)
	fmt.Fprintf(w, "   why: %s\n", h.Why)
	fmt.Fprintf(w, "   %s, GOMAXPROCS %d, nproc %d; %d timed passes; %d runs checked, %d failed (fail_ratio %.4g)\n",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, r.Passes, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "   %s metric\tvalue\tunit\tq1\tq3\tn\n", kind)
	for _, m := range r.Metrics {
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%.6g\t%.6g\t%d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	tw.Flush()
	for _, f := range r.Failures {
		fmt.Fprintln(w, "   FAIL", f)
	}
}

// resultLine is the final machine-readable line of a -workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(w io.Writer, r bench.Result) error {
	line := resultLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendResult appends r as one JSON line to path.
func appendResult(path string, r bench.Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload twice — end-to-end, then traced — each run
// in a child process of this binary, so each workload's peak RSS is its
// own. It exits 1 when any run failed.
func runAll(seed int64, seconds float64, out, spans string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	status := 0
	var summary []string
	for _, w := range bench.All() {
		for _, trace := range []string{"0", "1"} {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", trace, "-spans", spans,
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			var captured bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = io.MultiWriter(stdout, &captured)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(captured.Bytes()), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || runErr != nil {
				status = 1
				summary = append(summary, fmt.Sprintf("%-17s trace=%s  FAILED (%v)", w.Name, trace, runErr))
				continue
			}
			summary = append(summary, fmt.Sprintf("%-17s trace=%s  correct=%t attempted=%d failed=%d",
				w.Name, trace, line.Correct, line.Attempted, line.Failed))
		}
	}
	fmt.Fprintln(stdout, "== summary")
	for _, s := range summary {
		fmt.Fprintln(stdout, "  ", s)
	}
	return status
}

func runCompare(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	bounds, err := bench.LoadBounds(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	a, err := bench.ReadResults(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	b, err := bench.ReadResults(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	cs := bench.Compare(bounds, a, b)
	if len(cs) == 0 {
		fmt.Fprintln(stderr, "racebench: no end-to-end results in common")
		return 2
	}
	if err := bench.WriteComparison(stdout, cs); err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 2
	}
	for _, c := range cs {
		if c.Verdict == "worse" {
			return 1
		}
	}
	return 0
}
