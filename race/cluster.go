package race

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ClusterMigration schedules a single hash-slot migration during a
// Cluster run (see internal/cluster.Migration): Slot (-1 picks a live
// one), To (the target server address), AfterEvents (the trigger).
type ClusterMigration = cluster.Migration

// MemberError is the typed failure of one cluster member, carrying the
// member's address and its last acknowledged batch sequence.
type MemberError = cluster.MemberError

// checkEndpoint validates one host:port address; it returns the reason
// the address is invalid, or "" when it is well-formed. Shared by the
// Remote and Cluster validation paths, so a bad address is a typed
// *OptionsError at Validate time instead of a dial failure mid-run.
func checkEndpoint(addr string) string {
	if strings.TrimSpace(addr) == "" {
		return "empty address"
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "not a host:port address: " + err.Error()
	}
	if host == "" {
		return fmt.Sprintf("empty host in %q", addr)
	}
	if port == "" {
		return fmt.Sprintf("empty port in %q", addr)
	}
	return ""
}

// runCluster streams the program's events across a sharded racedetectd
// fleet and fills the report from the merged end-of-session reports — the
// fleet-scale sibling of runRemote. Granularity, workers and the detector
// knobs are negotiated with every member; the merged report is
// deterministic (canonical race order, router-exact access counts), so a
// cluster run is byte-comparable with an in-process one.
func runCluster(p Program, opts Options) (Report, error) {
	rep := Report{Program: p.Name, Tool: opts.Tool, Granularity: opts.Granularity}
	endDial := opts.Tracer.Span("dial", map[string]any{"cluster": strings.Join(opts.Cluster, ",")})
	ctrl := opts.samplingController()
	clOpts := cluster.Options{
		Members:     opts.Cluster,
		Sync:        opts.RemoteSync,
		Telemetry:   opts.Telemetry,
		Migration:   opts.ClusterMigration,
		TraceSample: opts.TraceSample,
		Tracer:      opts.Tracer,
		NewBatchPolicy: func() *event.BatchPolicy {
			return opts.batchPolicy() // nil unless adaptive; one policy per member
		},
		Hello: wire.Hello{
			Granularity:      uint8(opts.Granularity),
			Workers:          opts.Workers,
			NoInitState:      opts.NoInitState,
			NoInitSharing:    opts.NoInitSharing,
			WriteGuidedReads: opts.WriteGuidedReads,
			ReadReset:        opts.ReadReset,
			ReshareInterval:  opts.ReshareInterval,
			Provenance:       opts.Provenance,
		},
	}
	if ctrl != nil {
		// One controller absorbs the whole fleet's back-pressure signals
		// (it is mutex-guarded); the sampler it steers fronts the fan-out
		// sink, so shedding rate responds to the slowest member.
		clOpts.Backpressure = ctrl
	}
	cl, err := cluster.Dial(clOpts)
	endDial()
	if err != nil {
		return rep, err
	}
	var sink event.Sink = cl
	var smp *sampling.Detector
	if opts.Budget > 0 {
		smp = sampling.New(sink, opts.samplerOptions())
		if ctrl != nil {
			ctrl.Bind(smp)
		}
		sink = smp
	}
	var el *event.Elider
	if opts.Elide {
		// Outermost: repeats never reach the fan-out sink, so no member
		// pays serialization for them.
		el = event.NewElider(sink, event.EliderOptions{Telemetry: opts.Telemetry})
		sink = el
	}
	start := time.Now()
	endExec := opts.Tracer.Span("execute", map[string]any{"program": p.Name})
	rep.Run = sim.Run(p, sink, opts.engineOptions())
	endExec()
	endReport := opts.Tracer.Span("report")
	wrep, err := cl.Close()
	endReport()
	rep.Elapsed = time.Since(start)
	rep.TimedOut = rep.Run.TimedOut
	if err != nil {
		return rep, err
	}
	fillFastTrack(&rep, wrep.DetectorStats(), wrep.DetectorRaces(), wrep.DetectorProvs())
	rep.Detector.ShedRecords = wrep.Stats.ShedRecords
	if smp != nil {
		rep.Detector.SampledForwarded, rep.Detector.SampledSkipped = smp.Counts()
	}
	if el != nil {
		rep.Detector.Elided = el.Elided()
	}
	return rep, nil
}
