// Command racedetect runs one benchmark workload under a chosen detector
// and prints the detected races and run statistics — the command-line
// face of the library, comparable to invoking the paper's PIN tool on one
// program.
//
// Usage:
//
//	racedetect -list
//	racedetect -bench ffmpeg
//	racedetect -bench x264 -tool fasttrack -granularity word -v
//	racedetect -bench ferret -workers 4   # sharded parallel detection
//	racedetect -bench dedup -tool drd -mem-limit-mb 48
//	racedetect -bench facesim -budget 5%   # always-on mode: 5% sampling budget
//	racedetect -bench histogram -elide   # drop exact in-epoch repeats at the source (lossless)
//	racedetect -bench x264 -remote localhost:7474   # stream to racedetectd
//	racedetect -bench canneal -cluster host1:7474,host2:7474   # sharded detection cluster
//	racedetect -bench ffmpeg -workers 4 -metrics-addr :7070 -stats-interval 1s
//	racedetect -bench ferret -trace-out ferret-trace.json   # phase trace
//	racedetect -bench dedup -memprofile dedup.pprof -memstats  # allocation forensics
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/telemetry"
	"repro/race"
	"repro/workloads"
)

// memReport writes the heap profile (if path is non-empty) and prints a
// one-line allocator summary (if stats). Shared by racedetect and
// tracereplay via copy: the two commands keep no common package.
func memReport(path string, stats bool) {
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "racedetect:", err)
			os.Exit(1)
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

func main() {
	var (
		list    = flag.Bool("list", false, "list available benchmarks")
		bench   = flag.String("bench", "", "benchmark to run (see -list)")
		tool    = flag.String("tool", "fasttrack", "fasttrack | djit | drd | inspector | eraser")
		gran    = flag.String("granularity", "dynamic", "byte | word | dynamic (fasttrack only)")
		scale   = flag.Int("scale", 1, "workload scale factor")
		seed    = flag.Int64("seed", 42, "scheduler seed")
		memMB   = flag.Int64("mem-limit-mb", 0, "memory budget for drd/inspector (0 = unlimited)")
		timeout = flag.Duration("timeout", 0, "wall-time budget (0 = unlimited)")
		verbose = flag.Bool("v", false, "print each race report")
		budget  = flag.String("budget", "",
			"always-on sampling budget as a percentage or fraction (e.g. 5% or 0.05; 100% is a byte-identical pass-through): sample accesses down to this share of detection work, adapting to back-pressure on -workers/-remote/-cluster runs (fasttrack only)")
		elide = flag.Bool("elide", false,
			"front-line same-epoch elision: drop exact in-epoch repeat accesses at the source, before transport (lossless — verdicts are byte-identical; fasttrack only)")
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
	spec, err := workloads.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "use -list to see available benchmarks")
		os.Exit(2)
	}

	opts := race.Options{
		Seed: *seed, Timeout: *timeout, MemLimitBytes: *memMB << 20,
		Workers: *workers, Remote: *remote,
		StatsInterval: *statsInterval, MetricsAddr: *metricsAddr,
		Provenance: *provenance, TraceSample: *traceSample,
		Elide: *elide,
	}
	if *budget != "" {
		b, err := parseBudget(*budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -budget %q: %v\n", *budget, err)
			os.Exit(2)
		}
		opts.Budget = b
	}
	if *clusterList != "" {
		opts.Cluster = strings.Split(*clusterList, ",")
	}
	if *traceOut != "" || *spanOut != "" {
		opts.Tracer = race.NewTracer()
	}
	switch *tool {
	case "fasttrack":
		opts.Tool = race.FastTrack
	case "djit":
		opts.Tool = race.DJITPlus
	case "drd":
		opts.Tool = race.DRD
	case "inspector":
		opts.Tool = race.InspectorXE
	case "eraser":
		opts.Tool = race.Eraser
	default:
		fmt.Fprintf(os.Stderr, "unknown tool %q\n", *tool)
		os.Exit(2)
	}
	switch *gran {
	case "byte":
		opts.Granularity = race.Byte
	case "word":
		opts.Granularity = race.Word
	case "dynamic":
		opts.Granularity = race.Dynamic
	default:
		fmt.Fprintf(os.Stderr, "unknown granularity %q\n", *gran)
		os.Exit(2)
	}

	prog := spec.Build(*scale)
	endBase := opts.Tracer.Span("baseline")
	baseStats, baseTime := race.Baseline(prog, *seed)
	endBase()
	rep, err := race.RunE(prog, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racedetect:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "racedetect:", err)
			os.Exit(1)
		}
	}
	if *spanOut != "" {
		if err := writeSpans(*spanOut, opts.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "racedetect:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("benchmark   %s (scale %d, %d threads)\n", spec.Name, *scale, rep.Run.Threads)
	fmt.Printf("tool        %v", rep.Tool)
	if rep.Tool == race.FastTrack {
		fmt.Printf(" (%v granularity)", rep.Granularity)
		if *workers > 0 {
			fmt.Printf(", %d detection workers", *workers)
		}
		if *remote != "" {
			fmt.Printf(", remote %s", *remote)
		}
		if len(opts.Cluster) > 0 {
			fmt.Printf(", cluster of %d (%s)", len(opts.Cluster), *clusterList)
		}
	}
	fmt.Println()
	fmt.Printf("accesses    %d shared accesses, %d heap ops\n",
		rep.Run.Accesses, rep.Run.Mallocs+rep.Run.Frees)
	fmt.Printf("base        %v, %.2f MB peak heap\n",
		baseTime.Round(time.Microsecond), float64(baseStats.PeakHeapBytes)/(1<<20))
	fmt.Printf("instrumented %v (slowdown %.2fx)\n",
		rep.Elapsed.Round(time.Microsecond), float64(rep.Elapsed)/float64(baseTime))
	if rep.Tool == race.FastTrack {
		d := rep.Detector
		fmt.Printf("memory      hash %.2f MB + clocks %.2f MB + bitmaps %.2f MB = %.2f MB peak\n",
			mb(d.HashPeakBytes), mb(d.VCPeakBytes), mb(d.BitmapPeakBytes), mb(d.TotalPeakBytes))
		fmt.Printf("clocks      %d peak vector clocks, avg sharing %.1f, same-epoch %.0f%%\n",
			d.MaxVectorClocks, d.AvgSharing, d.SameEpochPct())
	} else if rep.Detector.TotalPeakBytes > 0 {
		fmt.Printf("memory      %.2f MB peak\n", mb(rep.Detector.TotalPeakBytes))
	}
	switch {
	case rep.OOM:
		fmt.Println("result      ABORTED: out of memory budget")
	case rep.TimedOut:
		fmt.Println("result      ABORTED: wall-time budget exceeded")
	}
	if opts.Budget > 0 {
		d := rep.Detector
		fmt.Printf("sampling    budget %.1f%%, sampled fraction %.2f%% (%d forwarded / %d skipped, %d shed by server)\n",
			100*opts.Budget, 100*d.SampledFraction(),
			d.SampledForwarded, d.SampledSkipped, d.ShedRecords)
	}
	if opts.Elide {
		d := rep.Detector
		total := d.Accesses + d.Elided
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d.Elided) / float64(total)
		}
		fmt.Printf("elision     %d of %d accesses elided at the source (%.2f%%)\n",
			d.Elided, total, pct)
	}
	fmt.Printf("races       %d reported (%d suppressed by module rules)\n",
		len(rep.Races), rep.Suppressed)
	if *provenance {
		explained := 0
		for _, p := range rep.Provenance {
			if p.Kind != "" {
				explained++
			}
		}
		fmt.Printf("provenance  %d/%d races explained\n", explained, len(rep.Races))
	}
	if *verbose {
		for i, x := range rep.Races {
			fmt.Printf("  %v\n", x)
			if i < len(rep.Provenance) && rep.Provenance[i].Kind != "" {
				for _, line := range strings.Split(strings.TrimRight(rep.Provenance[i].String(), "\n"), "\n") {
					fmt.Printf("    %s\n", line)
				}
			}
		}
	}
	memReport(*memprofile, *memstats)
}

// writeTrace dumps the run's phase trace as Chrome trace_event JSON
// (open in chrome://tracing, Perfetto, or speedscope).
func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans dumps the run's distributed span records as a JSON span file
// (read back with `racectl spans`).
func writeSpans(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteSpansJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseBudget parses a sampling budget given as a percentage ("5%") or a
// fraction ("0.05"). Shared by racedetect and tracereplay via copy.
func parseBudget(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if p, ok := strings.CutSuffix(s, "%"); ok {
		v, err := strconv.ParseFloat(p, 64)
		return v / 100, err
	}
	return strconv.ParseFloat(s, 64)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
