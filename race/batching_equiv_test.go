package race

import (
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/workloads"
)

// assertSameReport compares the fields the acceptance gate cares about:
// access statistics and the exact race set.
func assertSameReport(t *testing.T, name string, local, other Report) {
	t.Helper()
	if local.Run.Accesses != other.Run.Accesses {
		t.Errorf("%s: Run.Accesses %d vs %d", name, local.Run.Accesses, other.Run.Accesses)
	}
	if local.Detector.Accesses != other.Detector.Accesses {
		t.Errorf("%s: Detector.Accesses %d vs %d", name, local.Detector.Accesses, other.Detector.Accesses)
	}
	if local.Detector.SameEpoch != other.Detector.SameEpoch {
		t.Errorf("%s: Detector.SameEpoch %d vs %d", name, local.Detector.SameEpoch, other.Detector.SameEpoch)
	}
	want, got := sortRaces(local.Races), sortRaces(other.Races)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: race sets differ\nlocal (%d): %v\nother (%d): %v",
			name, len(want), want, len(got), got)
	}
}

// TestRemoteEquivalenceAdaptiveBatching checks the adaptive batch policy
// changes only batch boundaries, never the decoded stream: a remote run
// with adaptive sizing reproduces the local report across granularities.
func TestRemoteEquivalenceAdaptiveBatching(t *testing.T) {
	addr := startDetectd(t, server.Options{})
	spec, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Granularity{Byte, Word, Dynamic} {
		local := Run(spec.Program(), Options{Granularity: g, Seed: 42})
		remote, err := RunE(spec.Program(), Options{
			Granularity: g, Seed: 42, Workers: 2,
			Remote: addr, BatchPolicy: "adaptive",
		})
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		assertSameReport(t, "adaptive/"+g.String(), local, remote)
	}
}

// TestParallelEquivalenceAdaptiveBatching checks the adaptive batch
// policy on the local sharded pipeline: it moves batch boundaries between
// the router and its workers, never the report.
func TestParallelEquivalenceAdaptiveBatching(t *testing.T) {
	for _, name := range []string{"pbzip2", "streamcluster"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		serial := Run(spec.Program(), Options{Granularity: Dynamic, Seed: 42})
		sharded, err := RunE(spec.Program(), Options{Granularity: Dynamic, Seed: 42, Workers: 3, BatchPolicy: "adaptive"})
		if err != nil {
			t.Fatal(err)
		}
		assertSameReport(t, name, serial, sharded)
	}
}
