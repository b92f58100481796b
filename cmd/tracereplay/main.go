// Command tracereplay records a benchmark's instrumentation event stream
// to a trace file and replays traces into any detector — the record/replay
// workflow of RecPlay (Section VI related work), useful for analyzing one
// execution under many detector configurations without re-running the
// program. A trace file holds the same CRC-checked columnar Batch frames a
// client streams to racedetectd (see frames.go).
//
// Usage:
//
//	tracereplay -record -bench ferret -out ferret.trace
//	tracereplay -replay ferret.trace -tool fasttrack -granularity dynamic
//	tracereplay -replay ferret.trace -tool drd
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
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/sampling"
	"repro/internal/segment"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
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
		tool   = flag.String("tool", "fasttrack", "replay tool: fasttrack | drd")
		gran   = flag.String("granularity", "dynamic", "byte | word | dynamic")
		v      = flag.Bool("v", false, "print each race")
		remote = flag.String("remote", "",
			"replay into a racedetectd at this address instead of an in-process detector")
		clusterList = flag.String("cluster", "",
			"comma-separated racedetectd addresses: replay sharded across the fleet and merge their reports")
		workers = flag.Int("workers", 0,
			"with -remote: detection workers to request from the server (0 = server default)")
		batchPolicy = flag.String("batch-policy", "fixed",
			"with -remote: transport batch sizing (fixed | adaptive)")
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
	budgetFrac := 0.0
	if *budget != "" {
		b, err := parseBudget(*budget)
		if err != nil || !(b >= 0 && b <= 1) { // negated so that NaN fails
			fatal(fmt.Errorf("bad -budget %q (want a percentage like 5%% or a fraction in (0,1])", *budget))
		}
		budgetFrac = b
	}
	defer memReport(*memprofile, *memstats)

	obs, err := startObs(*metricsAddr, *statsInterval)
	if err != nil {
		fatal(err)
	}
	defer obs.stop()
	var tracer *telemetry.Tracer
	if *traceOut != "" || *spanOut != "" {
		tracer = telemetry.NewTracer()
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
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		start := time.Now()
		knobs := streamKnobs{prov: *provenance, traceSample: *traceSample, tracer: tracer, budget: budgetFrac, elide: *elide}
		if *clusterList != "" {
			endReplay := tracer.Span("replay-cluster", map[string]any{"cluster": *clusterList})
			replayCluster(f, strings.Split(*clusterList, ","), *gran, *batchPolicy, *workers, *v, start, obs.reg, knobs)
			endReplay()
			return
		}
		if *remote != "" {
			endReplay := tracer.Span("replay-remote", map[string]any{"addr": *remote})
			replayRemote(f, *remote, *gran, *batchPolicy, *workers, *v, start, obs.reg, knobs)
			endReplay()
			return
		}
		switch *tool {
		case "fasttrack":
			g := map[string]detector.Granularity{
				"byte": detector.Byte, "word": detector.Word, "dynamic": detector.Dynamic,
			}[*gran]
			cfg := detector.Config{Granularity: g, Provenance: *provenance}
			if obs.reg != nil {
				cfg.Metrics = detector.NewMetrics(obs.reg)
			}
			d := detector.New(cfg)
			// The budgeted lane wraps the detector: same trace, a fraction of
			// the accesses, the full synchronization skeleton.
			var sink event.Sink = d
			var smp *sampling.Detector
			if budgetFrac > 0 && budgetFrac < 1 {
				smp = sampling.New(d, sampling.Options{
					RatePermille: uint32(budgetFrac*1000 + 0.5),
					Telemetry:    obs.reg,
				})
				sink = smp
			}
			var el *event.Elider
			if *elide {
				el = event.NewElider(sink, event.EliderOptions{Telemetry: obs.reg})
				sink = el
			}
			endReplay := tracer.Span("replay", map[string]any{"tool": "fasttrack", "granularity": *gran})
			err := replayTrace(f, sink)
			endReplay()
			if err != nil {
				fatal(err)
			}
			st := d.Stats()
			fmt.Printf("fasttrack/%s over %d accesses in %v: %d races, %d peak clocks, %.2f MB peak\n",
				*gran, st.Accesses, time.Since(start).Round(time.Microsecond),
				len(d.Races()), st.Plane.NodesPeak, float64(st.TotalPeakBytes)/(1<<20))
			if smp != nil {
				printSamplingSummary(budgetFrac, smp)
			}
			if el != nil {
				printElideSummary(el, st.Accesses)
			}
			if *provenance {
				printProvSummary(d.Provs(), len(d.Races()))
			}
			if *v {
				printRaces(d.Races(), d.Provs())
			}
		case "drd":
			if budgetFrac > 0 && budgetFrac < 1 {
				fatal(fmt.Errorf("-budget requires -tool fasttrack (drd's segment reuse assumes the full stream)"))
			}
			if *elide {
				fatal(fmt.Errorf("-elide requires -tool fasttrack (the elision proof holds for the epoch-bitmap fast path only)"))
			}
			d := segment.New(segment.Options{})
			endReplay := tracer.Span("replay", map[string]any{"tool": "drd"})
			err := replayTrace(f, d)
			endReplay()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("drd replay in %v: %d races, %.2f MB peak\n",
				time.Since(start).Round(time.Microsecond),
				len(d.Races()), float64(d.PeakBytes())/(1<<20))
		default:
			fatal(fmt.Errorf("unknown replay tool %q", *tool))
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// parseStreamOpts maps the shared -granularity/-batch-policy flag values
// for the remote and cluster replay paths, exiting on bad input.
func parseStreamOpts(gran, batchPolicy string) (detector.Granularity, *event.BatchPolicy) {
	g, ok := map[string]detector.Granularity{
		"byte": detector.Byte, "word": detector.Word, "dynamic": detector.Dynamic,
	}[gran]
	if !ok {
		fatal(fmt.Errorf("unknown granularity %q", gran))
	}
	var policy *event.BatchPolicy
	switch batchPolicy {
	case "adaptive":
		policy = new(event.BatchPolicy)
	case "", "fixed":
	default:
		fatal(fmt.Errorf("unknown batch policy %q (want fixed or adaptive)", batchPolicy))
	}
	return g, policy
}

// streamKnobs bundles the observability knobs the remote and cluster
// replay paths share: provenance negotiation, distributed-trace sampling,
// and the span/trace recorder.
type streamKnobs struct {
	prov        bool
	traceSample float64
	tracer      *telemetry.Tracer
	budget      float64 // sampling budget in (0,1); 0 or 1 disables the lane
	elide       bool    // front-line same-epoch elision before the transport
}

// elideLane wraps a transport sink in the front-line same-epoch filter
// when -elide is set; returns the sink unchanged (and nil) otherwise.
func elideLane(sink event.Sink, on bool, reg *telemetry.Registry) (event.Sink, *event.Elider) {
	if !on {
		return sink, nil
	}
	el := event.NewElider(sink, event.EliderOptions{Telemetry: reg})
	return el, el
}

// printElideSummary prints the front-line filter's one-line outcome.
// detected is the access count that reached detection (Stats.Accesses).
func printElideSummary(el *event.Elider, detected uint64) {
	elided := el.Elided()
	total := detected + elided
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(elided) / float64(total)
	}
	fmt.Printf("elision     %d of %d accesses elided at the source (%.2f%%)\n", elided, total, pct)
}

// samplingController builds the feedback controller for a budgeted
// remote/cluster replay, or nil when the budget is off (0) or exhaustive
// (1). Created before the transport dials so the transport can feed it
// back-pressure signals; bound to the sampler by samplingLane after.
func samplingController(budget float64) *sampling.Controller {
	if budget <= 0 || budget >= 1 {
		return nil
	}
	return sampling.NewController(budget)
}

// samplingLane wraps a transport sink in the budgeted sampler and binds
// the controller (when one was created) so back-pressure steers the
// rate. Returns the sink unchanged when the budget is off or exhaustive.
func samplingLane(sink event.Sink, budget float64, ctrl *sampling.Controller, reg *telemetry.Registry) (event.Sink, *sampling.Detector) {
	if budget <= 0 || budget >= 1 {
		return sink, nil
	}
	smp := sampling.New(sink, sampling.Options{
		RatePermille: uint32(budget*1000 + 0.5),
		Telemetry:    reg,
	})
	if ctrl != nil {
		ctrl.Bind(smp)
	}
	return smp, smp
}

// printSamplingSummary prints the budgeted lane's one-line outcome.
func printSamplingSummary(budget float64, smp *sampling.Detector) {
	forwarded, skipped := smp.Counts()
	fmt.Printf("sampling    budget %.1f%%, sampled fraction %.2f%% (%d forwarded / %d skipped)\n",
		100*budget, 100*smp.Rate(), forwarded, skipped)
}

// printProvSummary prints the explained-race tally front-ends and CI grep.
func printProvSummary(provs []detector.Provenance, races int) {
	explained := 0
	for _, p := range provs {
		if p.Kind != "" {
			explained++
		}
	}
	fmt.Printf("provenance  %d/%d races explained\n", explained, races)
}

// printRaces prints each race (and, when present, its indented
// provenance explanation).
func printRaces(races []detector.Race, provs []detector.Provenance) {
	for i, r := range races {
		fmt.Printf("  %v\n", r)
		if i < len(provs) && provs[i].Kind != "" {
			for _, line := range strings.Split(strings.TrimRight(provs[i].String(), "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
	}
}

// replayRemote streams a recorded trace to a racedetectd and prints the
// service's report. reg, when non-nil, receives the client's wire metrics
// (client_batches_total, client_encode_ns, …) for the -metrics-addr page.
func replayRemote(f *os.File, addr, gran, batchPolicy string, workers int, verbose bool, start time.Time, reg *telemetry.Registry, knobs streamKnobs) {
	g, policy := parseStreamOpts(gran, batchPolicy)
	ctrl := samplingController(knobs.budget)
	clOpts := client.Options{
		Addr:        addr,
		Telemetry:   reg,
		BatchPolicy: policy,
		TraceSample: knobs.traceSample,
		Tracer:      knobs.tracer,
		Hello:       wire.Hello{Granularity: uint8(g), Workers: workers, Provenance: knobs.prov},
	}
	if ctrl != nil {
		clOpts.Backpressure = ctrl
	}
	cl, err := client.Dial(clOpts)
	if err != nil {
		fatal(err)
	}
	sink, smp := samplingLane(event.Sink(cl), knobs.budget, ctrl, reg)
	sink, el := elideLane(sink, knobs.elide, reg)
	if err := replayTrace(f, sink); err != nil {
		fatal(err)
	}
	rep, err := cl.Close()
	if err != nil {
		fatal(err)
	}
	st := cl.Stats()
	fmt.Printf("remote fasttrack/%s over %d accesses in %v: %d races, %d peak clocks, %.2f MB peak\n",
		gran, rep.Stats.Accesses, time.Since(start).Round(time.Microsecond),
		len(rep.Races), rep.Stats.NodesPeak, float64(rep.Stats.TotalPeakBytes)/(1<<20))
	fmt.Printf("transport   %d batches, %d events, %d payload bytes to %s\n",
		st.Batches, st.Events, st.PayloadBytes, addr)
	if smp != nil {
		printSamplingSummary(knobs.budget, smp)
	}
	if el != nil {
		printElideSummary(el, rep.Stats.Accesses)
	}
	if knobs.prov {
		printProvSummary(rep.DetectorProvs(), len(rep.Races))
	}
	if verbose {
		printRaces(rep.DetectorRaces(), rep.DetectorProvs())
	}
}

// replayCluster shards a recorded trace across a racedetectd fleet and
// prints the merged report — the fleet-scale sibling of replayRemote.
// Per-member batch policies are independent, so an adaptive policy tunes
// each member's batches to that member's observed back-pressure.
func replayCluster(f *os.File, members []string, gran, batchPolicy string, workers int, verbose bool, start time.Time, reg *telemetry.Registry, knobs streamKnobs) {
	g, policy := parseStreamOpts(gran, batchPolicy)
	ctrl := samplingController(knobs.budget)
	sOpts := cluster.Options{
		Members:     members,
		Telemetry:   reg,
		TraceSample: knobs.traceSample,
		Tracer:      knobs.tracer,
		NewBatchPolicy: func() *event.BatchPolicy {
			if policy == nil {
				return nil
			}
			return new(event.BatchPolicy)
		},
		Hello: wire.Hello{Granularity: uint8(g), Workers: workers, Provenance: knobs.prov},
	}
	if ctrl != nil {
		// One controller absorbs every member's signals: any overloaded
		// member throttles the shared sampler.
		sOpts.Backpressure = ctrl
	}
	cl, err := cluster.Dial(sOpts)
	if err != nil {
		fatal(err)
	}
	sink, smp := samplingLane(event.Sink(cl), knobs.budget, ctrl, reg)
	sink, el := elideLane(sink, knobs.elide, reg)
	if err := replayTrace(f, sink); err != nil {
		fatal(err)
	}
	rep, err := cl.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster fasttrack/%s over %d accesses in %v: %d races, %d peak clocks, %.2f MB peak across %d members\n",
		gran, rep.Stats.Accesses, time.Since(start).Round(time.Microsecond),
		len(rep.Races), rep.Stats.NodesPeak, float64(rep.Stats.TotalPeakBytes)/(1<<20),
		len(members))
	if smp != nil {
		printSamplingSummary(knobs.budget, smp)
	}
	if el != nil {
		printElideSummary(el, rep.Stats.Accesses)
	}
	if knobs.prov {
		printProvSummary(rep.DetectorProvs(), len(rep.Races))
	}
	if verbose {
		printRaces(rep.DetectorRaces(), rep.DetectorProvs())
	}
}

// obs owns tracereplay's optional telemetry side-cars: a metric registry
// served over HTTP (-metrics-addr) and a periodic one-line progress report
// to stderr (-stats-interval). When neither flag is set the registry stays
// nil and the replay paths run uninstrumented.
type obs struct {
	reg  *telemetry.Registry
	ln   net.Listener
	quit chan struct{}
	done chan struct{}
}

// startObs creates the registry and starts the side-cars the flags asked
// for. With both flags unset it returns an inert obs (reg == nil).
func startObs(addr string, interval time.Duration) (*obs, error) {
	o := &obs{}
	if addr == "" && interval <= 0 {
		return o, nil
	}
	o.reg = telemetry.New()
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("metrics endpoint: %w", err)
		}
		o.ln = ln
		go (&http.Server{Handler: o.reg.Handler()}).Serve(ln)
	}
	if interval > 0 {
		o.quit = make(chan struct{})
		o.done = make(chan struct{})
		go func() {
			defer close(o.done)
			start := time.Now()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-o.quit:
					return
				case <-t.C:
					fmt.Fprintf(os.Stderr, "progress t=%.1fs accesses=%d races=%d streamed=%d\n",
						time.Since(start).Seconds(),
						o.reg.CounterValue("detector_accesses_total"),
						o.reg.CounterValue("detector_races_total"),
						o.reg.CounterValue("client_events_total"))
				}
			}
		}()
	}
	return o, nil
}

// stop joins the progress goroutine and closes the metrics listener.
func (o *obs) stop() {
	if o.quit != nil {
		close(o.quit)
		<-o.done
	}
	if o.ln != nil {
		o.ln.Close()
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
