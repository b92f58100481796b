package race

import (
	"fmt"
	"net"
	"strings"

	"repro/internal/cluster"
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

// runCluster streams the events across a sharded racedetectd fleet and
// fills the report from the merged end-of-session reports — the
// fleet-scale sibling of runRemote. Granularity, workers and the detector
// knobs are negotiated with every member; the merged report is
// deterministic (canonical race order, router-exact access counts), so a
// cluster run is byte-comparable with an in-process one.
func runCluster(name string, src source, opts Options) (Report, error) {
	rep := Report{Program: name, Tool: opts.Tool, Granularity: opts.Granularity}
	endDial := opts.Tracer.Span("dial", map[string]any{"cluster": strings.Join(opts.Cluster, ",")})
	ctrl := opts.samplingController()
	clOpts := cluster.Options{
		Members:     opts.Cluster,
		Hello:       opts.hello(),
		Telemetry:   opts.Telemetry,
		Migration:   opts.ClusterMigration,
		TraceSample: opts.TraceSample,
		Tracer:      opts.Tracer,
	}
	if ctrl != nil {
		// One controller absorbs the whole fleet's back-pressure signals
		// (it is mutex-guarded); the sampler it steers fronts the fan-out
		// sink, so the sampling rate responds to the slowest member.
		clOpts.Backpressure = ctrl
	}
	cl, err := cluster.Dial(clOpts)
	endDial()
	if err != nil {
		return rep, err
	}
	return stream(rep, src, opts, cl, ctrl)
}
