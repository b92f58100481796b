// Command tracereplay records a benchmark's instrumentation event stream
// to a trace file and replays traces into any detector — the record/replay
// workflow of RecPlay (Section VI related work), useful for analyzing one
// execution under many detector configurations without re-running the
// program. A trace file holds the same CRC-checked columnar Batch frames a
// client streams to racedetectd (see frames.go). A replay runs through
// race.Replay, the wiring race.Run uses for a live program, so every tool,
// topology and front end racedetect offers applies to a recorded trace and
// reports what the live run reports.
//
// Usage:
//
//	tracereplay -record -bench ferret -out ferret.trace
//	tracereplay -replay ferret.trace -tool fasttrack -granularity dynamic
//	tracereplay -replay ferret.trace -tool drd
//	tracereplay -replay ferret.trace -workers 4          # sharded detection
//	tracereplay -replay ferret.trace -remote localhost:7474
//	tracereplay -replay ferret.trace -budget 5%          # budgeted sampling lane
//	tracereplay -replay ferret.trace -elide              # lossless same-epoch elision
//	tracereplay -replay ferret.trace -cluster host1:7474,host2:7474
//	tracereplay -replay ferret.trace -metrics-addr :7070 -stats-interval 1s
//	tracereplay -record -bench ferret -out ferret.trace -trace-out phases.json
//	tracereplay -replay ferret.trace -memprofile replay.pprof -memstats
//
// With -remote the recorded stream is not detected in-process: it is
// streamed to a racedetectd detection service and the server's report is
// printed, so one recorded execution can be analyzed on a different
// machine (or by a long-lived service) without re-running the program.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/race"
	"repro/workloads"
)

func main() {
	var (
		record = flag.Bool("record", false, "record a benchmark trace")
		replay = flag.String("replay", "", "trace file to replay")
		bench  = flag.String("bench", "", "benchmark to record (see racedetect -list)")
		out    = flag.String("out", "out.trace", "output trace file")
		scale  = flag.Int("scale", 1, "workload scale when recording")
		seed   = flag.Int64("seed", 42, "scheduler seed when recording")
		tool   = flag.String("tool", "fasttrack", "replay tool: fasttrack | djit | drd | inspector | eraser")
		gran   = flag.String("granularity", "dynamic", "byte | word | dynamic (fasttrack only)")
		v      = flag.Bool("v", false, "print each race")
		remote = flag.String("remote", "",
			"replay into a racedetectd at this address instead of an in-process detector (fasttrack only)")
		clusterList = flag.String("cluster", "",
			"comma-separated racedetectd addresses: replay sharded across the fleet and merge their reports (fasttrack only)")
		workers = flag.Int("workers", 0,
			"sharded detection workers for fasttrack (0 = serial); with -remote/-cluster, the workers each server runs")
		statsInterval = flag.Duration("stats-interval", 0,
			"print a one-line progress report to stderr every interval (0 disables)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve live replay telemetry over HTTP on this address (/metrics, /debug/vars, /debug/pprof)")
		traceOut = flag.String("trace-out", "",
			"write a Chrome trace_event JSON phase trace to this file")
		provenance = flag.Bool("provenance", false,
			"attach an explanation record to every race (fasttrack replays; works in-process, -remote and -cluster)")
		traceSample = flag.Float64("trace-sample", 0,
			"with -remote/-cluster: distributed-trace sampling rate in [0,1] (0 disables)")
		spanOut = flag.String("span-out", "",
			"write the distributed span records as JSON to this file (implies a tracer)")
		memprofile = flag.String("memprofile", "",
			"write a heap (allocs) profile to this file on exit")
		memstats = flag.Bool("memstats", false,
			"print a one-line allocator summary to stderr on exit")
		budget = flag.String("budget", "",
			`replay through the budgeted sampling lane at this access budget ("5%" or 0.05; fasttrack replays only)`)
		elide = flag.Bool("elide", false,
			"front-line same-epoch elision: drop exact in-epoch repeat accesses before detection/transport (lossless; fasttrack replays only)")
	)
	flag.Parse()
	defer memReport(*memprofile, *memstats)

	var tracer *telemetry.Tracer
	if *traceOut != "" || *spanOut != "" {
		tracer = race.NewTracer()
	}
	if *traceOut != "" {
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := tracer.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *spanOut != "" {
		defer func() {
			f, err := os.Create(*spanOut)
			if err != nil {
				fatal(err)
			}
			if err := tracer.WriteSpansJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	switch {
	case *record:
		spec, err := workloads.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		endRecord := tracer.Span("record", map[string]any{"bench": spec.Name})
		var st sim.Stats
		events, err := recordTrace(f, func(s event.Sink) {
			st = sim.Run(spec.Build(*scale), s, sim.Options{Seed: *seed})
		})
		endRecord()
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		info, _ := os.Stat(*out)
		fmt.Printf("recorded %d events (%d accesses) to %s (%d bytes, %.2f B/event)\n",
			events, st.Accesses, *out, info.Size(),
			float64(info.Size())/float64(events))

	case *replay != "":
		opts := race.Options{
			Workers: *workers, Remote: *remote,
			StatsInterval: *statsInterval, MetricsAddr: *metricsAddr,
			Provenance: *provenance, TraceSample: *traceSample,
			Elide: *elide, Tracer: tracer,
		}
		var ok bool
		if opts.Tool, ok = tools[*tool]; !ok {
			fatal(fmt.Errorf("unknown replay tool %q", *tool))
		}
		if opts.Granularity, ok = granularities[*gran]; !ok {
			fatal(fmt.Errorf("unknown granularity %q", *gran))
		}
		if *budget != "" {
			b, err := parseBudget(*budget)
			if err != nil {
				fatal(fmt.Errorf("bad -budget %q: %v", *budget, err))
			}
			opts.Budget = b
		}
		if *clusterList != "" {
			opts.Cluster = strings.Split(*clusterList, ",")
		}
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rep, err := race.Replay(*replay, func(s race.Sink) error { return replayTrace(f, s) }, opts)
		if err != nil {
			fatal(err)
		}
		printReport(rep, opts, *v)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// tools and granularities map the -tool and -granularity values racedetect
// accepts onto race.Options.
var (
	tools = map[string]race.Tool{
		"fasttrack": race.FastTrack, "djit": race.DJITPlus, "drd": race.DRD,
		"inspector": race.InspectorXE, "eraser": race.Eraser,
	}
	granularities = map[string]race.Granularity{
		"byte": race.Byte, "word": race.Word, "dynamic": race.Dynamic,
	}
)

// printReport prints a replay's outcome. The race lines (-v) are
// racedetect's, so a replay's races diff cleanly against the live run's.
func printReport(rep race.Report, opts race.Options, verbose bool) {
	d := rep.Detector
	fmt.Printf("replay      %s: %v", rep.Program, rep.Tool)
	if rep.Tool == race.FastTrack {
		fmt.Printf(" (%v granularity)", rep.Granularity)
		if opts.Workers > 0 {
			fmt.Printf(", %d detection workers", opts.Workers)
		}
		if opts.Remote != "" {
			fmt.Printf(", remote %s", opts.Remote)
		}
		if len(opts.Cluster) > 0 {
			fmt.Printf(", cluster of %d", len(opts.Cluster))
		}
	}
	fmt.Printf(" in %v\n", rep.Elapsed.Round(time.Microsecond))
	if rep.Tool == race.FastTrack {
		fmt.Printf("detection   %d accesses, %d peak vector clocks, %.2f MB peak, same-epoch %.0f%%\n",
			d.Accesses, d.MaxVectorClocks, float64(d.TotalPeakBytes)/(1<<20), d.SameEpochPct())
	} else if d.TotalPeakBytes > 0 {
		fmt.Printf("memory      %.2f MB peak\n", float64(d.TotalPeakBytes)/(1<<20))
	}
	if opts.Budget > 0 {
		fmt.Printf("sampling    budget %.1f%%, sampled fraction %.2f%% (%d forwarded / %d skipped, %d shed by server)\n",
			100*opts.Budget, 100*d.SampledFraction(),
			d.SampledForwarded, d.SampledSkipped, d.ShedRecords)
	}
	if opts.Elide {
		total := d.Accesses + d.Elided
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d.Elided) / float64(total)
		}
		fmt.Printf("elision     %d of %d accesses elided at the source (%.2f%%)\n", d.Elided, total, pct)
	}
	fmt.Printf("races       %d reported (%d suppressed by module rules)\n", len(rep.Races), rep.Suppressed)
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

// memReport writes the heap profile (if path is non-empty) and prints a
// one-line allocator summary (if stats). Shared by racedetect and
// tracereplay via copy: the two commands keep no common package.
func memReport(path string, stats bool) {
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // flush recent allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "tracereplay:", err)
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
// fraction ("0.05"). Shared by racedetect and tracereplay via copy.
func parseBudget(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if p, ok := strings.CutSuffix(s, "%"); ok {
		v, err := strconv.ParseFloat(p, 64)
		return v / 100, err
	}
	return strconv.ParseFloat(s, 64)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracereplay:", err)
	os.Exit(1)
}
