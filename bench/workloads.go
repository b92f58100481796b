// Package bench is the repository's end-to-end benchmark: four named
// workloads, each a fixed mix of the paper's programs deployed on one
// detection topology, measured as the paper measures (Table 1 slowdown
// against a paired uninstrumented run, Table 2 memory overhead) plus a
// per-layer ledger from a separate traced pass.
//
// The benchmark drives the system only through its public entry points
// (race.RunE, race.Baseline, server.New/Serve, client.Dial, cluster.Dial,
// sim.Run, event.Encoder, detector.New, pipeline.New, sampling.New and the
// wire codec) and records its own spans around the calls into each layer,
// so it never needs the code under test to change.
package bench

import (
	"fmt"
	"strings"

	"repro/race"
)

// Topology is the deployment a workload runs its programs on. Only
// deployment-level options are set; every comparison knob (elision, codec,
// dispatch, batch policy, clock representation) stays at its default.
type Topology struct {
	// Workers is the local pipeline worker count (0 = serial in-process).
	Workers int
	// Servers is the number of loopback racedetectd servers: 0 detects
	// in-process, 1 streams to one server (Options.Remote), 2 or more fan
	// out across a cluster (Options.Cluster).
	Servers int
	// Budget is the always-on sampling budget (0 = exhaustive detection).
	Budget float64
}

// Workload is one named benchmark input: a program mix at a scale on a
// topology. Names are stable; issues and result files cite them.
type Workload struct {
	Name     string
	Why      string
	Programs []string
	Scale    int
	Topology Topology
}

// Exact reports whether the workload must reproduce the serial reference
// race set exactly (every topology without sampling).
func (w Workload) Exact() bool { return w.Topology.Budget == 0 }

// Describe renders the topology for headers and tables.
func (w Workload) Describe() string {
	t := w.Topology
	var s string
	switch {
	case t.Servers == 1:
		s = "one loopback racedetectd"
	case t.Servers > 1:
		s = fmt.Sprintf("%d-member loopback cluster", t.Servers)
	case t.Workers > 0:
		s = fmt.Sprintf("local pipeline, %d workers", t.Workers)
	default:
		s = "in-process serial"
	}
	if t.Budget > 0 {
		s += fmt.Sprintf(", budget %g", t.Budget)
	}
	return s
}

// options returns the instrumented run's options: dynamic granularity on
// the workload's topology, addressed at the set-up servers.
func (w Workload) options(seed int64, addrs []string) race.Options {
	o := race.Options{
		Granularity: race.Dynamic,
		Seed:        seed,
		Workers:     w.Topology.Workers,
		Budget:      w.Topology.Budget,
		Timeout:     runTimeout,
	}
	switch {
	case len(addrs) == 1:
		o.Remote = addrs[0]
	case len(addrs) > 1:
		o.Cluster = addrs
	}
	return o
}

// All returns the four workloads in their fixed order.
func All() []Workload {
	return []Workload{
		{
			Name:     "sharing-serial",
			Why:      "dynamic granularity at work: many same-epoch hits, strong clock sharing and dedup heap churn, all on the serial detector",
			Programs: []string{"facesim", "fluidanimate", "streamcluster", "dedup"},
			Scale:    8,
		},
		{
			Name:     "random-pipeline",
			Why:      "random fine-grained access defeats same-epoch and sharing, so every access takes the full check through the local pipeline",
			Programs: []string{"canneal", "raytrace", "x264"},
			Scale:    16,
			Topology: Topology{Workers: 2},
		},
		{
			Name:     "gosync-remote",
			Why:      "channel, select and WaitGroup sync through one loopback server: client encode/ack, wire codec and server dispatch dominate",
			Programs: []string{"fanin", "pipedag", "workerpool"},
			Scale:    24,
			Topology: Topology{Servers: 1},
		},
		{
			Name:     "alwayson-cluster",
			Why:      "always-on production path: sampler and AIMD controller, fan-out and broadcast to a 2-member cluster, report merge",
			Programs: []string{"facesim", "canneal", "pbzip2", "x264"},
			Scale:    12,
			Topology: Topology{Servers: 2, Budget: 0.05},
		},
	}
}

// Lookup returns the workload named name.
func Lookup(name string) (Workload, error) {
	var names []string
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// expectedRaces is each program's dynamic-granularity race count at scale
// 1 and seed 42: the hand-verified seeded races of workloads/races_test.go.
// Counts at other seeds are properties of the schedule: about a third of
// fluidanimate's schedules add three races on locations sharing a racy
// location's clock, and some of canneal's and pipedag's order a seeded
// pair through synchronization. So only the readiness probe, which runs at
// that seed and scale, is held to these counts; runs at the benchmark's
// seed are held to the serial reference at the same seed.
var expectedRaces = map[string]int{
	"facesim":       2,
	"fluidanimate":  4,
	"raytrace":      2,
	"x264":          76,
	"canneal":       2,
	"dedup":         2,
	"streamcluster": 5,
	"pbzip2":        0,
	"fanin":         1,
	"workerpool":    0,
	"pipedag":       2,
}

// checkExpected returns a failure message when a probe of program found
// other than its hand-verified race count.
func checkExpected(program string, got int) string {
	want, ok := expectedRaces[program]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no expected race count", program)
	case got != want:
		return fmt.Sprintf("%s: readiness probe found %d races, want %d", program, got, want)
	}
	return ""
}
