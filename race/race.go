// Package race is the public API of the reproduction: it runs a virtual
// multithreaded program (built with the engine API re-exported here) under
// one of five data race detectors and returns a unified report with the
// detected races, timing, and the detector's memory breakdown. Replay
// runs a recorded event stream through the same wiring.
//
// The detectors are the systems the paper builds or measures:
//
//	FastTrack  — the paper's detector: FastTrack with byte, word, or
//	             dynamic granularity (Sections II–IV).
//	DJITPlus   — the DJIT+ reference algorithm (Section II.B), precision-
//	             equivalent to FastTrack; used as the oracle.
//	DRD        — a RecPlay/DRD-style segment detector (Valgrind DRD's
//	             algorithm family, Table 6).
//	InspectorXE — a hybrid lockset+happens-before detector standing in for
//	             Intel Inspector XE (Table 6).
//	Eraser     — the classic LockSet algorithm (related work).
//
// A minimal use:
//
//	prog := race.Program{Name: "demo", Main: func(t *race.Thread) {
//	    w := t.Go(func(w *race.Thread) { w.Write(0x1000, 4) })
//	    t.Write(0x1000, 4) // races with the child
//	    t.Join(w)
//	}}
//	rep := race.Run(prog, race.Options{Granularity: race.Dynamic})
//	for _, r := range rep.Races {
//	    fmt.Println(r)
//	}
package race

import (
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/detector"
	"repro/internal/djit"
	"repro/internal/event"
	"repro/internal/hybrid"
	"repro/internal/lockset"
	"repro/internal/multirace"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/segment"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Program, Thread and RunStats re-export the execution-engine API so
// callers can build and run analyzed programs without importing internal
// packages.
type (
	// Program is a virtual multithreaded program (see sim.Program).
	Program = sim.Program
	// Thread is the handle a program's thread bodies receive.
	Thread = sim.Thread
	// RunStats summarizes the analyzed program's own execution.
	RunStats = sim.Stats
	// EngineOptions configure the execution engine directly.
	EngineOptions = sim.Options
	// Module tags the origin of a code site (application, libc, ld,
	// pthread) for suppression rules.
	Module = event.Module
	// Sink is the raw instrumentation-event consumer interface.
	Sink = event.Sink
)

// Module tags, re-exported.
const (
	ModuleApp     = event.ModuleApp
	ModuleLibc    = event.ModuleLibc
	ModuleLd      = event.ModuleLd
	ModulePthread = event.ModulePthread
)

// Granularity selects the FastTrack detection unit.
type Granularity = detector.Granularity

// Detection granularities, re-exported from the detector.
const (
	Byte    = detector.Byte
	Word    = detector.Word
	Dynamic = detector.Dynamic
)

// ChanID and WGID re-export the engine's channel and WaitGroup handles.
type (
	ChanID = event.ChanID
	WGID   = event.WGID
)

// Tool selects the detection algorithm.
type Tool uint8

const (
	// FastTrack is the paper's detector (choose a Granularity).
	FastTrack Tool = iota
	// DJITPlus is the DJIT+ reference detector (byte granularity, full
	// vector clocks; the precision oracle).
	DJITPlus
	// DRD is the segment-based detector standing in for Valgrind DRD.
	DRD
	// InspectorXE is the hybrid detector standing in for Intel Inspector.
	InspectorXE
	// Eraser is the LockSet algorithm.
	Eraser
	// MultiRace combines LockSet as a sound prefilter with DJIT+-style
	// happens-before confirmation (related work [19]).
	MultiRace
)

func (t Tool) String() string {
	switch t {
	case FastTrack:
		return "fasttrack"
	case DJITPlus:
		return "djit+"
	case DRD:
		return "drd"
	case InspectorXE:
		return "inspector"
	case Eraser:
		return "eraser"
	case MultiRace:
		return "multirace"
	default:
		return "?"
	}
}

// Options configure a detection run.
type Options struct {
	// Tool selects the algorithm (default FastTrack).
	Tool Tool
	// Granularity applies to FastTrack (default Byte).
	Granularity Granularity
	// Seed drives the deterministic scheduler (same seed → same report).
	Seed int64
	// Quantum is the scheduler quantum in events (0 = default).
	Quantum int
	// MaxEvents aborts the run (via engine panic) after this many events;
	// 0 = unlimited. Guards against runaway workloads.
	MaxEvents uint64

	// Workers enables the sharded parallel detection pipeline: events are
	// batched and routed to this many detection workers by shadow-block
	// number. 0 runs the detector serially on the execution thread,
	// preserving the exact serial memory accounting; 1 moves detection to a
	// single background worker (useful for overlap measurement). Workers
	// applies to FastTrack only; the other tools always run serially.
	Workers int

	// NoInitState and NoInitSharing are the Table 5 state-machine
	// ablations; WriteGuidedReads and ReshareInterval are the Section VII
	// future-work extensions. All apply to FastTrack with Dynamic
	// granularity.
	NoInitState      bool
	NoInitSharing    bool
	WriteGuidedReads bool
	ReshareInterval  uint8
	// ReadReset enables FastTrack's write-exclusive read reset (reclaims
	// inflated read vectors once a write dominates them).
	ReadReset bool

	// MemLimitBytes aborts DRD/InspectorXE runs that exceed this accounted
	// footprint (the paper's out-of-memory exits on dedup). 0 = unlimited.
	MemLimitBytes int64
	// Timeout abandons the run after this wall time (the paper's ">24
	// hours" rows). 0 = unlimited.
	Timeout time.Duration

	// Remote streams the event stream to a racedetectd detection service at
	// this TCP address instead of detecting in-process. Granularity, Workers
	// and the FastTrack ablation knobs above are negotiated with the server;
	// FastTrack is the only tool with a remote implementation. Empty =
	// in-process detection.
	Remote string
	// Cluster streams the event stream to a horizontally sharded fleet of
	// racedetectd servers: access events are partitioned across the
	// members by shadow-block id (through internal/cluster's hash-slot
	// ring) and sync events are broadcast, so each member detects a
	// disjoint slice of the address space and the per-member reports are
	// merged into one at close. Mutually exclusive with Remote; FastTrack
	// only. Each entry is a host:port address; empty/duplicate entries are
	// rejected by Validate.
	Cluster []string
	// ClusterMigration, when non-nil, schedules a single hash-slot
	// migration mid-stream (drain-to-watermark on the owner, journal
	// replay into a fresh session on the target) — the rebalance path,
	// exposed for tests and drills.
	ClusterMigration *ClusterMigration

	// Budget enables the always-on sampling lane: a fraction in (0, 1]
	// of the detection work the run may spend. A LiteRace-style
	// cold-region sampler (internal/sampling) fronts the detector in
	// every topology — serial, pipeline, Remote and Cluster — forwarding
	// every synchronization event (happens-before stays exact; sampling
	// can only miss races, never invent them) and sampling memory
	// accesses so the run-wide forwarded fraction converges on the
	// budget. On transports with back-pressure signals (pipeline worker
	// queues, remote ack RTTs) a feedback controller additionally lowers
	// the rate under pressure and recovers toward the budget when it clears.
	// Budget 1 is a byte-identical pass-through; 0 disables the lane
	// entirely. FastTrack only. Stats reports the achieved fraction
	// (SampledForwarded / SampledSkipped), and telemetry exposes it as
	// detector_sampled_fraction.
	Budget float64

	// Provenance attaches an explanation record to every reported race:
	// both conflicting accesses, the failing epoch/clock comparison, the
	// granularity-plane state history, and the last few synchronization
	// edges the detector applied before the report. FastTrack only; works
	// in-process, Remote and Cluster (the record rides the wire report).
	// Verdicts are byte-identical with or without it.
	Provenance bool
	// TraceSample samples event batches into a distributed trace at this
	// rate (0 = off, 1 = every batch): sampled batches carry trace/span IDs
	// across the wire, the server and its shard pipeline attach child
	// spans, and ack-RTT/dispatch/apply histograms record the trace ID of
	// tail-latency observations as exemplars. Effective on Remote and
	// Cluster runs (in-process runs have no wire batches to trace); spans
	// land in Tracer when set, and in the server's /debug/spans always.
	TraceSample float64

	// Telemetry, when non-nil, receives the run's live metrics: detector
	// state transitions and sharing decisions, pipeline per-shard counters
	// and queue depth, client wire counters. Nil disables instrumentation
	// at near-zero cost (one predictable branch per site). Use
	// NewTelemetry to obtain a registry without importing internal
	// packages. MetricsAddr and StatsInterval install one automatically.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records phase spans (execute, drain, collect,
	// dial, report) for a Chrome trace_event JSON dump (NewTracer,
	// Tracer.WriteJSON). Nil disables tracing.
	Tracer *telemetry.Tracer
	// MetricsAddr serves the run's telemetry over HTTP (/metrics
	// Prometheus text, /debug/vars JSON, /debug/pprof/*) on this address
	// for the duration of the run. Empty = no endpoint.
	MetricsAddr string
	// StatsInterval prints a one-line progress report (accesses,
	// same-epoch hits, races, queue depth) to StatsWriter every interval.
	// A Remote or Cluster run reports the events and batches its client
	// streamed instead: its detectors count in the servers. 0 disables;
	// negative is rejected by Validate.
	StatsInterval time.Duration
	// StatsWriter receives the progress lines; nil means os.Stderr.
	StatsWriter io.Writer
}

// OptionsError reports an invalid Options field. It is the (typed) error
// returned by Validate and RunE, and the panic value of Run, so callers
// can distinguish misconfiguration from transport or engine failures.
type OptionsError struct {
	Field  string // the Options field that is invalid
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("race: invalid Options.%s: %s", e.Field, e.Reason)
}

// Validate checks the option combination before any detector state is
// built. It returns a *OptionsError describing the first problem found,
// or nil. Run and RunE call it; it is exported so front-ends (flag
// parsing, config files) can reject bad configurations early.
func (o Options) Validate() error {
	if o.Tool > MultiRace {
		return &OptionsError{"Tool", fmt.Sprintf("unknown tool %d", o.Tool)}
	}
	if o.Granularity > Dynamic {
		return &OptionsError{"Granularity", fmt.Sprintf("unknown granularity %d", o.Granularity)}
	}
	if o.Workers < 0 {
		return &OptionsError{"Workers", fmt.Sprintf("negative worker count %d", o.Workers)}
	}
	if o.Quantum < 0 {
		return &OptionsError{"Quantum", fmt.Sprintf("negative scheduler quantum %d", o.Quantum)}
	}
	if o.Timeout < 0 {
		return &OptionsError{"Timeout", fmt.Sprintf("negative timeout %v", o.Timeout)}
	}
	if o.MemLimitBytes < 0 {
		return &OptionsError{"MemLimitBytes", fmt.Sprintf("negative memory limit %d", o.MemLimitBytes)}
	}
	if o.Remote != "" {
		if o.Tool != FastTrack {
			return &OptionsError{"Remote", fmt.Sprintf("remote detection supports the fasttrack tool only, not %v", o.Tool)}
		}
		if reason := checkEndpoint(o.Remote); reason != "" {
			return &OptionsError{"Remote", reason}
		}
	}
	if len(o.Cluster) > 0 {
		if o.Remote != "" {
			return &OptionsError{"Cluster", "mutually exclusive with Remote (a cluster session manages its own member connections)"}
		}
		if o.Tool != FastTrack {
			return &OptionsError{"Cluster", fmt.Sprintf("cluster detection supports the fasttrack tool only, not %v", o.Tool)}
		}
		seen := make(map[string]bool, len(o.Cluster))
		for i, addr := range o.Cluster {
			if reason := checkEndpoint(addr); reason != "" {
				return &OptionsError{"Cluster", fmt.Sprintf("member %d: %s", i, reason)}
			}
			if seen[addr] {
				return &OptionsError{"Cluster", fmt.Sprintf("duplicate member %q", addr)}
			}
			seen[addr] = true
		}
	}
	if o.ClusterMigration != nil {
		if len(o.Cluster) == 0 {
			return &OptionsError{"ClusterMigration", "requires Cluster to be set"}
		}
		if reason := checkEndpoint(o.ClusterMigration.To); reason != "" {
			return &OptionsError{"ClusterMigration", fmt.Sprintf("target: %s", reason)}
		}
		if o.ClusterMigration.Slot < -1 || o.ClusterMigration.Slot >= cluster.Slots {
			return &OptionsError{"ClusterMigration", fmt.Sprintf("slot %d out of range [0,%d) (or -1 for auto)", o.ClusterMigration.Slot, cluster.Slots)}
		}
	}
	if !(o.Budget >= 0 && o.Budget <= 1) { // negated so that NaN fails
		return &OptionsError{"Budget", fmt.Sprintf("sampling budget %v outside (0,1] (0 disables)", o.Budget)}
	}
	if o.Budget > 0 && o.Tool != FastTrack {
		return &OptionsError{"Budget", fmt.Sprintf("the sampling lane applies to the fasttrack tool only, not %v", o.Tool)}
	}
	if o.Provenance && o.Tool != FastTrack {
		return &OptionsError{"Provenance", fmt.Sprintf("race provenance applies to the fasttrack tool only, not %v", o.Tool)}
	}
	if !(o.TraceSample >= 0 && o.TraceSample <= 1) { // negated so that NaN fails
		return &OptionsError{"TraceSample", fmt.Sprintf("sampling rate %v outside [0,1]", o.TraceSample)}
	}
	if o.StatsInterval < 0 {
		return &OptionsError{"StatsInterval", fmt.Sprintf("negative interval %v", o.StatsInterval)}
	}
	return nil
}

// Race is one reported data race in unified form.
type Race struct {
	// Kind is "write-write", "read-write" or "write-read" ("lockset" for
	// Eraser warnings, which carry no happens-before direction).
	Kind string
	// Addr and Size give the location (Size 0 when not tracked).
	Addr uint64
	Size uint32
	// Tid/PC identify the access completing the race; OtherTid/OtherPC the
	// earlier conflicting access where the tool records it.
	Tid      int32
	PC       uint32
	OtherTid int32
	OtherPC  uint32
}

func (r Race) String() string {
	return fmt.Sprintf("%s race at %#x (%dB): thread %d@pc%#x vs thread %d@pc%#x",
		r.Kind, r.Addr, r.Size, r.Tid, r.PC, r.OtherTid, r.OtherPC)
}

// Provenance is one race's explanation record (Options.Provenance): both
// conflicting accesses, the failing happens-before comparison, the
// granularity-plane state transitions and the recent sync edges. Its
// String method renders a multi-line human-readable explanation.
type Provenance = detector.Provenance

// Stats carries the detector-side measurements the evaluation tables use.
type Stats struct {
	// Accesses and SameEpoch feed Table 4 (percentage of accesses the
	// per-thread bitmaps filtered).
	Accesses  uint64
	SameEpoch uint64

	// Memory components (Table 2); for DRD/InspectorXE only TotalPeakBytes
	// is populated.
	HashPeakBytes   int64
	VCPeakBytes     int64
	BitmapPeakBytes int64
	TotalPeakBytes  int64

	// MaxVectorClocks and AvgSharing feed Table 3.
	MaxVectorClocks int64
	AvgSharing      float64

	// Sharing mechanics (ablation benches).
	NodeAllocs, LocCreations uint64
	Merges, Splits           uint64
	SharingComparisons       uint64

	// Memory-layer effectiveness (the BENCH_mem.json lane): NodeRecycles
	// counts shadow-node creations served from the per-plane freelists
	// instead of the Go heap; VCPoolHits/VCPoolMisses count vector-clock
	// backing-array requests served from / missed by the size-classed
	// clock pool; VCInterns counts read vectors deduplicated through the
	// intern table. All zero for detectors without the pooled memory layer.
	NodeRecycles             uint64
	VCPoolHits, VCPoolMisses uint64
	VCInterns                uint64

	// Sampling lane (Options.Budget): accesses the sampler forwarded to
	// the detector vs dropped. Both zero on unsampled runs and on the
	// 100%-budget pass-through lane; below it their sum is Run.Accesses.
	SampledForwarded uint64
	SampledSkipped   uint64
	// ShedRecords counts access records a remote daemon reported dropping
	// before its pipeline (wire.ReportStats.ShedRecords). Only a daemon
	// built with the since-removed load shedder sends it; it is zero
	// against a current one.
	ShedRecords uint64
}

// SampledFraction returns the fraction of observed accesses that reached
// the detector (1 on unsampled runs — nothing was dropped).
func (s Stats) SampledFraction() float64 {
	total := s.SampledForwarded + s.SampledSkipped
	if total == 0 {
		return 1
	}
	return float64(s.SampledForwarded) / float64(total)
}

// SameEpochPct returns the same-epoch percentage (Table 4).
func (s Stats) SameEpochPct() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 100 * float64(s.SameEpoch) / float64(s.Accesses)
}

// Report is the result of one detection run.
type Report struct {
	Program     string
	Tool        Tool
	Granularity Granularity

	// Races are the reported races in detection order; Suppressed counts
	// races hidden by module suppression rules.
	Races      []Race
	Suppressed uint64

	// Provenance, when Options.Provenance was set on a FastTrack run,
	// carries one explanation record per race, parallel to Races (empty
	// otherwise; a zero record marks a race whose provenance was lost,
	// e.g. reported by a server without the feature).
	Provenance []Provenance

	// Elapsed is the wall time of the instrumented run; compare with a
	// Baseline run of the same program/seed for the slowdown factor.
	Elapsed time.Duration

	// Run summarizes the analyzed program's own execution (base memory,
	// threads, heap churn).
	Run RunStats

	// Detector carries the detector-side statistics.
	Detector Stats

	// OOM and TimedOut mark runs that did not complete (Table 6's dedup,
	// fluidanimate and ffmpeg rows for the comparison tools).
	OOM      bool
	TimedOut bool
}

// engineOptions maps the engine-facing subset of Options onto sim.Options.
// Every sim.Options field must be produced here — TestEngineOptionsMapping
// pins the field set so a new engine knob cannot silently fail to reach the
// engine (the bug this method replaced: Timeout and MaxEvents were dropped).
func (o Options) engineOptions() sim.Options {
	so := sim.Options{Seed: o.Seed, Quantum: o.Quantum, MaxEvents: o.MaxEvents}
	if o.Timeout > 0 {
		so.Deadline = time.Now().Add(o.Timeout)
	}
	return so
}

// samplerOptions maps Budget onto the sampling front end's configuration.
func (o Options) samplerOptions() sampling.Options {
	return sampling.Options{
		RatePermille: uint32(o.Budget*1000 + 0.5),
		Telemetry:    o.Telemetry,
	}
}

// samplingController returns the feedback controller for this run, or
// nil: only budgeted lanes below 100% have a rate worth steering, and
// only transports with back-pressure signals (pipeline worker queues,
// remote/cluster ack RTTs and outbox occupancy) can steer it. A serial
// local run keeps the rate statically at the budget, which keeps the
// bench lanes deterministic.
func (o Options) samplingController() *sampling.Controller {
	if o.Budget <= 0 || o.Budget >= 1 {
		return nil
	}
	if o.Workers <= 0 && o.Remote == "" && len(o.Cluster) == 0 {
		return nil
	}
	return sampling.NewController(o.Budget)
}

// hello is the detection configuration a Remote or Cluster session
// negotiates with its servers.
func (o Options) hello() wire.Hello {
	return wire.Hello{
		Granularity:      uint8(o.Granularity),
		Workers:          o.Workers,
		NoInitState:      o.NoInitState,
		NoInitSharing:    o.NoInitSharing,
		WriteGuidedReads: o.WriteGuidedReads,
		ReadReset:        o.ReadReset,
		ReshareInterval:  o.ReshareInterval,
		Provenance:       o.Provenance,
	}
}

// front wraps sink in the run's front end: the budgeted sampler (Budget),
// bound to ctrl when the transport steers it. fill copies the sampler's
// counts into a report whose detector statistics are already filled.
func (o Options) front(sink event.Sink, ctrl *sampling.Controller) (_ event.Sink, fill func(*Report)) {
	var smp *sampling.Detector
	if o.Budget > 0 {
		smp = sampling.New(sink, o.samplerOptions())
		if ctrl != nil {
			ctrl.Bind(smp)
		}
		sink = smp
	}
	return sink, func(r *Report) {
		if smp != nil {
			r.Detector.SampledForwarded, r.Detector.SampledSkipped = smp.Counts()
		}
	}
}

// fillFastTrack maps FastTrack detector output into the unified report; the
// serial detector and the sharded pipeline share it, so both modes populate
// the report identically. provs, when non-empty, is the provenance slice
// parallel to races (Options.Provenance) and is copied through verbatim.
func fillFastTrack(r *Report, st detector.Stats, races []detector.Race, provs []detector.Provenance) {
	r.Detector = Stats{
		Accesses:           st.Accesses,
		SameEpoch:          st.SameEpoch,
		HashPeakBytes:      st.HashPeakBytes,
		VCPeakBytes:        st.VCPeakBytes,
		BitmapPeakBytes:    st.BitmapPeakBytes,
		TotalPeakBytes:     st.TotalPeakBytes,
		MaxVectorClocks:    st.Plane.NodesPeak,
		AvgSharing:         st.Plane.AvgSharing(),
		NodeAllocs:         st.Plane.NodeAllocs,
		LocCreations:       st.Plane.LocCreations,
		Merges:             st.Plane.Merges,
		Splits:             st.Plane.Splits,
		SharingComparisons: st.SharingComparisons,
		NodeRecycles:       st.Plane.NodeRecycles,
		VCPoolHits:         st.VCPoolHits,
		VCPoolMisses:       st.VCPoolMisses,
		VCInterns:          st.VCInterns,
	}
	r.Suppressed = st.Suppressed
	for _, x := range races {
		r.Races = append(r.Races, Race{
			Kind: x.Kind.String(), Addr: x.Addr, Size: x.Size,
			Tid: int32(x.Tid), PC: uint32(x.PC),
			OtherTid: int32(x.PrevTid), OtherPC: uint32(x.PrevPC),
		})
	}
	if len(provs) > 0 {
		r.Provenance = append(r.Provenance, provs...)
	}
}

// Run executes p under the configured detector and returns the report.
// It panics with a *OptionsError on invalid options and with a transport
// error when a Remote run fails; RunE is the error-returning form.
func Run(p Program, opts Options) Report {
	rep, err := RunE(p, opts)
	if err != nil {
		panic(err)
	}
	return rep
}

// RunE is Run with an error return: invalid options yield a
// *OptionsError, and remote-detection transport failures (connection
// refused and not recovered, server-side rejection) are reported instead
// of panicking.
func RunE(p Program, opts Options) (Report, error) {
	return run(p.Name, programSource(p, opts), opts)
}

// Replay runs the event stream feed emits (a recorded trace, say) through
// the topology opts selects: the same validation, observability
// side-cars, front end, detectors and transports as RunE, so a replayed
// stream yields the report of the live run it was recorded from. feed
// emits the whole stream into the Sink it is handed and returns. The
// engine options (Seed, Quantum, MaxEvents, Timeout) do not apply, and
// Report.Run stays zero. An error from feed is returned after the
// detection workers have drained or the Remote or Cluster session has
// closed, so none of them outlives the call.
func Replay(name string, feed func(Sink) error, opts Options) (Report, error) {
	return run(name, func(s event.Sink) (RunStats, error) { return RunStats{}, feed(s) }, opts)
}

// source emits one run's event stream into the detection sink and returns
// the analyzed program's own statistics.
type source func(event.Sink) (RunStats, error)

// programSource is the source of a live run: p executed by the engine.
func programSource(p Program, opts Options) source {
	return func(s event.Sink) (RunStats, error) { return sim.Run(p, s, opts.engineOptions()), nil }
}

// run validates opts, starts the observability side-cars and runs src
// under the topology opts selects.
func run(name string, src source, opts Options) (Report, error) {
	if err := opts.Validate(); err != nil {
		return Report{}, err
	}
	obs, err := startObservability(&opts)
	if err != nil {
		return Report{}, err
	}
	defer obs.stop()
	switch {
	case opts.Remote != "":
		return runRemote(name, src, opts)
	case len(opts.Cluster) > 0:
		return runCluster(name, src, opts)
	}
	return runLocal(name, src, opts)
}

// runRemote streams the events to a racedetectd and fills the report from
// the service's end-of-session reply.
func runRemote(name string, src source, opts Options) (Report, error) {
	rep := Report{Program: name, Tool: opts.Tool, Granularity: opts.Granularity}
	endDial := opts.Tracer.Span("dial", map[string]any{"addr": opts.Remote})
	ctrl := opts.samplingController()
	clOpts := client.Options{
		Addr:        opts.Remote,
		Hello:       opts.hello(),
		Telemetry:   opts.Telemetry,
		TraceSample: opts.TraceSample,
		Tracer:      opts.Tracer,
	}
	if ctrl != nil {
		clOpts.Backpressure = ctrl
	}
	cl, err := client.Dial(clOpts)
	endDial()
	if err != nil {
		return rep, err
	}
	return stream(rep, src, opts, cl, ctrl)
}

// session is the producer end of a Remote or Cluster detection session.
type session interface {
	event.Sink
	Close() (*wire.Report, error)
}

// stream runs src into a dialed session behind the run's front end and
// fills rep from the session's end-of-stream report. The timed window
// covers the run plus the flush-and-report exchange, mirroring the local
// pipeline mode where drain time is part of Elapsed. The session is closed
// even when src fails.
func stream(rep Report, src source, opts Options, s session, ctrl *sampling.Controller) (Report, error) {
	sink, fill := opts.front(s, ctrl)
	start := time.Now()
	endExec := opts.Tracer.Span("execute", map[string]any{"program": rep.Program})
	run, err := src(sink)
	endExec()
	endReport := opts.Tracer.Span("report")
	wrep, closeErr := s.Close()
	endReport()
	rep.Run = run
	rep.Elapsed = time.Since(start)
	rep.TimedOut = rep.Run.TimedOut
	if err == nil {
		err = closeErr
	}
	if err != nil {
		return rep, err
	}
	fillFastTrack(&rep, wrep.DetectorStats(), wrep.DetectorRaces(), wrep.DetectorProvs())
	rep.Detector.ShedRecords = wrep.Stats.ShedRecords
	fill(&rep)
	return rep, nil
}

// runLocal runs src under an in-process detector.
func runLocal(name string, src source, opts Options) (Report, error) {
	rep := Report{Program: name, Tool: opts.Tool, Granularity: opts.Granularity}
	ctrl := opts.samplingController()

	var sink event.Sink
	var collect func(*Report)
	var drain func() // runs inside the timed window, before collect
	switch opts.Tool {
	case FastTrack:
		cfg := detector.Config{
			Granularity:      opts.Granularity,
			NoInitState:      opts.NoInitState,
			NoInitSharing:    opts.NoInitSharing,
			WriteGuidedReads: opts.WriteGuidedReads,
			ReshareInterval:  opts.ReshareInterval,
			ReadReset:        opts.ReadReset,
			Provenance:       opts.Provenance,
		}
		if opts.Workers > 0 {
			plOpts := pipeline.Options{
				Workers:   opts.Workers,
				Detector:  cfg,
				Telemetry: opts.Telemetry,
				Tracer:    opts.Tracer,
			}
			if ctrl != nil {
				plOpts.Backpressure = ctrl
			}
			pl := pipeline.New(plOpts)
			sink = pl
			var res pipeline.Result
			drain = func() { res = pl.Wait() }
			collect = func(r *Report) { fillFastTrack(r, res.Stats, res.Races, res.Provenance) }
		} else {
			if opts.Telemetry != nil {
				cfg.Metrics = detector.NewMetrics(opts.Telemetry)
			}
			d := detector.New(cfg)
			sink = d
			collect = func(r *Report) { fillFastTrack(r, d.Stats(), d.Races(), d.Provs()) }
		}
	case DJITPlus:
		d := djit.New(djit.Options{Granule: 1})
		sink = d
		collect = func(r *Report) {
			for _, x := range d.Races() {
				r.Races = append(r.Races, Race{
					Kind: x.Kind.String(), Addr: x.Addr, Size: 1,
					Tid: int32(x.Tid), OtherTid: int32(x.Other),
				})
			}
		}
	case DRD:
		d := segment.New(segment.Options{MemLimitBytes: opts.MemLimitBytes})
		sink = d
		collect = func(r *Report) {
			r.OOM = d.OOM()
			r.Detector.TotalPeakBytes = d.PeakBytes()
			for _, x := range d.Races() {
				r.Races = append(r.Races, Race{
					Kind: x.Kind.String(), Addr: x.Addr, Size: segment.Granule,
					Tid: int32(x.Tid), PC: uint32(x.PC), OtherTid: int32(x.Other),
				})
			}
		}
	case InspectorXE:
		d := hybrid.New(hybrid.Options{MemLimitBytes: opts.MemLimitBytes})
		sink = d
		collect = func(r *Report) {
			r.OOM = d.OOM()
			r.Detector.TotalPeakBytes = d.PeakBytes()
			for _, x := range d.Races() {
				r.Races = append(r.Races, Race{
					Kind: x.Kind.String(), Addr: x.Addr, Size: 1,
					Tid: int32(x.Tid), PC: uint32(x.PC),
					OtherTid: int32(x.Other), OtherPC: uint32(x.OtherPC),
				})
			}
		}
	case Eraser:
		d := lockset.New(lockset.Options{})
		sink = d
		collect = func(r *Report) {
			for _, x := range d.Races() {
				r.Races = append(r.Races, Race{
					Kind: "lockset", Addr: x.Addr, Size: 4,
					Tid: int32(x.Tid), PC: uint32(x.PC),
				})
			}
		}
	case MultiRace:
		d := multirace.New(multirace.Options{})
		sink = d
		collect = func(r *Report) {
			r.Detector.SharingComparisons = d.ChecksRun
			for _, x := range d.Races() {
				r.Races = append(r.Races, Race{
					Kind: x.Kind.String(), Addr: x.Addr, Size: multirace.Granule,
					Tid: int32(x.Tid), PC: uint32(x.PC), OtherTid: int32(x.Other),
				})
			}
		}
	default:
		panic(fmt.Sprintf("race: unknown tool %d", opts.Tool))
	}

	// Budget applies to FastTrack only (Validate), so the other tools get
	// an empty front end.
	sink, fill := opts.front(sink, ctrl)

	start := time.Now()
	endExec := opts.Tracer.Span("execute", map[string]any{"program": name, "tool": opts.Tool.String()})
	run, err := src(sink)
	endExec()
	rep.Run = run
	if drain != nil {
		endDrain := opts.Tracer.Span("drain")
		drain() // the timed window includes draining the detection workers
		endDrain()
	}
	rep.Elapsed = time.Since(start)
	rep.TimedOut = rep.Run.TimedOut
	if err != nil {
		return rep, err
	}
	endCollect := opts.Tracer.Span("collect")
	collect(&rep)
	fill(&rep)
	endCollect()
	return rep, nil
}

// Baseline runs p uninstrumented (a no-op sink) and returns the program's
// own statistics and wall time — the denominators of Table 1's slowdown
// and memory-overhead factors.
func Baseline(p Program, seed int64) (RunStats, time.Duration) {
	start := time.Now()
	st := sim.Run(p, event.Nop{}, sim.Options{Seed: seed})
	return st, time.Since(start)
}
