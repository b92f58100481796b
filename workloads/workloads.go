// Package workloads provides the benchmark programs of the paper's
// evaluation (Section V) as virtual programs for the execution engine: the
// eight PARSEC-2.1 benchmarks (facesim, ferret, fluidanimate, raytrace,
// x264, canneal, dedup, streamcluster) plus FFmpeg, pbzip2 and hmmsearch,
// and three Go-native synchronization families (fanin, workerpool,
// pipedag) that exercise channels, select and WaitGroups — the
// synchronization Go programs use in place of locks.
//
// The originals cannot be run under a Go detector (no dynamic binary
// instrumentation), so each workload is a synthetic model that reproduces
// the benchmark's *sharing structure* — the properties the evaluation
// depends on: which access sizes dominate, whether neighbouring locations
// are accessed together, how data is initialized, how much heap churns,
// how threads synchronize, and which deliberate races exist. DESIGN.md
// documents this substitution; each workload's file comments state the
// behaviours it is modelled to reproduce.
//
// Every workload is deterministic for a given seed and scale. Scale 1 is
// the default used by the table harness; property tests and quick checks
// run smaller scales.
package workloads

import (
	"fmt"

	"repro/internal/sim"
)

// Spec describes one benchmark workload.
type Spec struct {
	// Name is the benchmark name as the paper's tables print it.
	Name string
	// Threads is the number of threads the program runs (including main),
	// the "# of threads" column of Table 1.
	Threads int
	// Description summarizes the modelled sharing structure.
	Description string
	// Races is the number of genuine data races seeded in the workload
	// (the expected byte-granularity report count).
	Races int
	// Build constructs the program at the given scale (≥ 1).
	Build func(scale int) sim.Program
}

// Program returns the workload's program at scale 1.
func (s Spec) Program() sim.Program { return s.Build(1) }

// All returns every benchmark workload in the paper's table order.
func All() []Spec {
	return []Spec{
		Facesim(),
		Ferret(),
		Fluidanimate(),
		Raytrace(),
		X264(),
		Canneal(),
		Dedup(),
		Streamcluster(),
		FFmpeg(),
		Pbzip2(),
		Hmmsearch(),
		Fanin(),
		Workerpool(),
		Pipedag(),
	}
}

// ByName returns the workload with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names returns every benchmark name in table order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// joinAll joins every worker handle.
func joinAll(t *sim.Thread, hs []*sim.Thread) {
	for _, h := range hs {
		t.Join(h)
	}
}

// spinWait busy-waits (yielding the scheduler) until cond holds. Unlike a
// lock or condition variable it creates *no* happens-before edge, which the
// race-choreography workloads (x264, streamcluster, ffmpeg) rely on to
// order operations across threads while keeping them logically concurrent.
func spinWait(t *sim.Thread, cond func() bool) {
	for !cond() {
		t.Yield()
	}
}
