// Command racedetect runs one benchmark workload under a chosen detector
// and prints the detected races and run statistics — the command-line
// face of the library, comparable to invoking the paper's PIN tool on one
// program.
//
// It also records a run's event stream to a trace file (-record) and
// analyzes a trace in place of a program run (-replay): the RecPlay-style
// workflow of the paper's related work (Section VI), which analyzes one
// execution under many detector configurations without re-running the
// program. A replay takes a program run's detection, observability and
// memory flags (not -scale, -seed or -timeout), reports what the live run
// reports, and prints the same report without the access, baseline and
// slowdown lines.
//
// Usage:
//
//	racedetect -list
//	racedetect -bench ffmpeg
//	racedetect -bench x264 -tool fasttrack -granularity word -v
//	racedetect -bench ferret -workers 4   # sharded parallel detection
//	racedetect -bench dedup -tool drd -mem-limit-mb 48
//	racedetect -bench facesim -budget 5%   # always-on mode: 5% sampling budget
//	racedetect -bench x264 -remote localhost:7474   # stream to racedetectd
//	racedetect -bench canneal -cluster host1:7474,host2:7474   # sharded detection cluster
//	racedetect -bench ffmpeg -workers 4 -metrics-addr :7070 -stats-interval 1s
//	racedetect -bench ferret -trace-out ferret-trace.json   # phase trace
//	racedetect -bench dedup -memprofile dedup.pprof -memstats  # allocation forensics
//	racedetect -bench ferret -record ferret.trace   # write the run's trace and exit
//	racedetect -replay ferret.trace -tool drd       # analyze the recorded run
//	racedetect -replay ferret.trace -remote localhost:7474
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/race"
	"repro/workloads"
)

// tools and granularities map the -tool and -granularity values onto
// race.Options.
var (
	tools = map[string]race.Tool{
		"fasttrack": race.FastTrack, "djit": race.DJITPlus, "drd": race.DRD,
		"inspector": race.InspectorXE, "eraser": race.Eraser,
	}
	granularities = map[string]race.Granularity{
		"byte": race.Byte, "word": race.Word, "dynamic": race.Dynamic,
	}
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available benchmarks")
		bench   = flag.String("bench", "", "benchmark to run (see -list)")
		record  = flag.String("record", "", "write the -bench run's event trace (at -scale and -seed) to this file and exit")
		replay  = flag.String("replay", "", "analyze this recorded trace file in place of running -bench")
		tool    = flag.String("tool", "fasttrack", "fasttrack | djit | drd | inspector | eraser")
		gran    = flag.String("granularity", "dynamic", "byte | word | dynamic (fasttrack only)")
		scale   = flag.Int("scale", 1, "workload scale factor")
		seed    = flag.Int64("seed", 42, "scheduler seed")
		memMB   = flag.Int64("mem-limit-mb", 0, "memory budget for drd/inspector (0 = unlimited)")
		timeout = flag.Duration("timeout", 0, "wall-time budget (0 = unlimited)")
		verbose = flag.Bool("v", false, "print each race report")
		budget  = flag.String("budget", "",
			"always-on sampling budget as a percentage or fraction (e.g. 5% or 0.05; 100% is a byte-identical pass-through): sample accesses down to this share of detection work, adapting to back-pressure on -workers/-remote/-cluster runs (fasttrack only)")
		workers = flag.Int("workers", 0,
			"sharded detection workers for fasttrack (0 = serial); needs GOMAXPROCS > workers for speedup")
		remote = flag.String("remote", "",
			"stream events to a racedetectd at this address instead of detecting in-process (fasttrack only)")
		clusterList = flag.String("cluster", "",
			"comma-separated racedetectd addresses: shard accesses across the fleet and merge their reports (fasttrack only)")
		statsInterval = flag.Duration("stats-interval", 0,
			"print a one-line progress report to stderr every interval (0 disables)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve live run telemetry over HTTP on this address (/metrics, /debug/vars, /debug/pprof)")
		traceOut = flag.String("trace-out", "",
			"write a Chrome trace_event JSON phase trace to this file")
		provenance = flag.Bool("provenance", false,
			"attach an explanation record to every race (both accesses, failed clock comparison, state path, recent sync edges); print with -v")
		traceSample = flag.Float64("trace-sample", 0,
			"with -remote/-cluster: distributed-trace sampling rate in [0,1] (0 disables)")
		spanOut = flag.String("span-out", "",
			"write the distributed span records as JSON to this file (implies a tracer)")
		memprofile = flag.String("memprofile", "",
			"write a heap (allocs) profile to this file on exit")
		memstats = flag.Bool("memstats", false,
			"print a one-line allocator summary to stderr on exit")
	)
	flag.Parse()

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NAME\tTHREADS\tRACES\tDESCRIPTION")
		for _, s := range workloads.All() {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", s.Name, s.Threads, s.Races, s.Description)
		}
		tw.Flush()
		return
	}
	var spec workloads.Spec
	if *replay != "" {
		if *bench != "" || *record != "" {
			usageError("-replay stands in for -bench and does not combine with -bench or -record")
		}
	} else {
		var err error
		if spec, err = workloads.ByName(*bench); err != nil {
			usageError(err.Error() + "\nuse -list to see available benchmarks")
		}
	}

	opts := race.Options{
		Seed: *seed, Timeout: *timeout, MemLimitBytes: *memMB << 20,
		Workers: *workers, Remote: *remote,
		StatsInterval: *statsInterval, MetricsAddr: *metricsAddr,
		Provenance: *provenance, TraceSample: *traceSample,
	}
	var ok bool
	if opts.Tool, ok = tools[*tool]; !ok {
		usageError(fmt.Sprintf("unknown tool %q", *tool))
	}
	if opts.Granularity, ok = granularities[*gran]; !ok {
		usageError(fmt.Sprintf("unknown granularity %q", *gran))
	}
	if *budget != "" {
		b, err := parseBudget(*budget)
		if err != nil {
			usageError(fmt.Sprintf("bad -budget %q: %v", *budget, err))
		}
		opts.Budget = b
	}
	if *clusterList != "" {
		opts.Cluster = strings.Split(*clusterList, ",")
	}
	if *traceOut != "" || *spanOut != "" {
		opts.Tracer = race.NewTracer()
	}

	switch {
	case *record != "":
		var st race.RunStats
		endRecord := opts.Tracer.Span("record", map[string]any{"bench": spec.Name})
		err := writeFile(*record, func(w io.Writer) (err error) {
			st, err = race.Record(w, spec.Build(*scale), *seed)
			return err
		})
		endRecord()
		if err != nil {
			fatal(err)
		}
		info, err := os.Stat(*record)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d events (%d accesses) to %s (%d bytes, %.2f B/event)\n",
			st.Events, st.Accesses, *record, info.Size(), float64(info.Size())/float64(st.Events))

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		rep, err := race.Replay(*replay, f, opts)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replay      %s\n", *replay)
		printReport(rep, opts, nil, *verbose)

	default:
		prog := spec.Build(*scale)
		endBase := opts.Tracer.Span("baseline")
		var base baseline
		base.stats, base.time = race.Baseline(prog, *seed)
		endBase()
		rep, err := race.RunE(prog, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("benchmark   %s (scale %d, %d threads)\n", spec.Name, *scale, rep.Run.Threads)
		printReport(rep, opts, &base, *verbose)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, opts.Tracer.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *spanOut != "" {
		if err := writeFile(*spanOut, opts.Tracer.WriteSpansJSON); err != nil {
			fatal(err)
		}
	}
	memReport(*memprofile, *memstats)
}

// baseline is the uninstrumented run of a live report's program, the
// denominator of its slowdown.
type baseline struct {
	stats race.RunStats
	time  time.Duration
}

// printReport prints a run's outcome after its first line. base is nil
// for a replay, which has no program run: its report has no access,
// baseline or slowdown lines, and its race lines (-v) equal the live
// run's.
func printReport(rep race.Report, opts race.Options, base *baseline, verbose bool) {
	fmt.Printf("tool        %v", rep.Tool)
	if rep.Tool == race.FastTrack {
		fmt.Printf(" (%v granularity)", rep.Granularity)
		if opts.Workers > 0 {
			fmt.Printf(", %d detection workers", opts.Workers)
		}
		if opts.Remote != "" {
			fmt.Printf(", remote %s", opts.Remote)
		}
		if len(opts.Cluster) > 0 {
			fmt.Printf(", cluster of %d (%s)", len(opts.Cluster), strings.Join(opts.Cluster, ","))
		}
	}
	fmt.Println()
	if base != nil {
		fmt.Printf("accesses    %d accesses, %d heap ops\n",
			rep.Run.Accesses, rep.Run.Mallocs+rep.Run.Frees)
		fmt.Printf("base        %v, %.2f MB peak heap\n",
			base.time.Round(time.Microsecond), float64(base.stats.PeakHeapBytes)/(1<<20))
		fmt.Printf("instrumented %v (slowdown %.2fx)\n",
			rep.Elapsed.Round(time.Microsecond), float64(rep.Elapsed)/float64(base.time))
	} else {
		fmt.Printf("replayed    %v\n", rep.Elapsed.Round(time.Microsecond))
	}
	d := rep.Detector
	if rep.Tool == race.FastTrack {
		fmt.Printf("memory      hash %.2f MB + clocks %.2f MB + bitmaps %.2f MB = %.2f MB peak\n",
			mb(d.HashPeakBytes), mb(d.VCPeakBytes), mb(d.BitmapPeakBytes), mb(d.TotalPeakBytes))
		fmt.Printf("clocks      %d peak vector clocks, avg sharing %.1f, same-epoch %.0f%%\n",
			d.MaxVectorClocks, d.AvgSharing, d.SameEpochPct())
	} else if d.TotalPeakBytes > 0 {
		fmt.Printf("memory      %.2f MB peak\n", mb(d.TotalPeakBytes))
	}
	switch {
	case rep.OOM:
		fmt.Println("result      ABORTED: out of memory budget")
	case rep.TimedOut:
		fmt.Println("result      ABORTED: wall-time budget exceeded")
	}
	if opts.Budget > 0 {
		fmt.Printf("sampling    budget %.1f%%, sampled fraction %.2f%% (%d forwarded / %d skipped)\n",
			100*opts.Budget, 100*d.SampledFraction(), d.SampledForwarded, d.SampledSkipped)
	}
	fmt.Printf("races       %d reported (%d suppressed by module rules)\n",
		len(rep.Races), rep.Suppressed)
	if opts.Provenance {
		explained := 0
		for _, p := range rep.Provenance {
			if p.Kind != "" {
				explained++
			}
		}
		fmt.Printf("provenance  %d/%d races explained\n", explained, len(rep.Races))
	}
	if verbose {
		for i, x := range rep.Races {
			fmt.Printf("  %v\n", x)
			if i < len(rep.Provenance) && rep.Provenance[i].Kind != "" {
				for _, line := range strings.Split(strings.TrimRight(rep.Provenance[i].String(), "\n"), "\n") {
					fmt.Printf("    %s\n", line)
				}
			}
		}
	}
}

// writeFile creates path and fills it with write: a recorded trace, the
// phase trace (open in chrome://tracing, Perfetto, or speedscope) or the
// distributed span records (read back with `racectl spans`).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memReport writes the heap profile (if path is non-empty) and prints a
// one-line allocator summary (if stats).
func memReport(path string, stats bool) {
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // flush recent allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "racedetect:", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote heap profile to %s (inspect with: go tool pprof %s)\n", path, path)
	}
	if stats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Fprintf(os.Stderr,
			"memstats    %d allocs, %.2f MB total, %.2f MB heap peak, %d GC cycles, %.2fms total pause\n",
			m.Mallocs, float64(m.TotalAlloc)/(1<<20), float64(m.HeapSys)/(1<<20),
			m.NumGC, float64(m.PauseTotalNs)/1e6)
	}
}

// parseBudget parses a sampling budget given as a percentage ("5%") or a
// fraction ("0.05").
func parseBudget(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if p, ok := strings.CutSuffix(s, "%"); ok {
		v, err := strconv.ParseFloat(p, 64)
		return v / 100, err
	}
	return strconv.ParseFloat(s, 64)
}

// usageError reports a bad command line and exits 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "racedetect:", msg)
	os.Exit(2)
}

// fatal reports a failed run and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racedetect:", err)
	os.Exit(1)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
