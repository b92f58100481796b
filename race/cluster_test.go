package race

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/workloads"
)

// TestClusterEquivalence is the acceptance gate for the sharded detection
// cluster: for every workload and every granularity, fanning the stream
// out across N ∈ {1, 2, 4} racedetectd members must reproduce the
// in-process race set byte-identically, plus the exact access statistics.
// The four servers are started once; the member lists are prefixes.
func TestClusterEquivalence(t *testing.T) {
	servers := make([]string, 4)
	for i := range servers {
		servers[i] = startDetectd(t, server.Options{})
	}
	grans := []Granularity{Byte, Word, Dynamic}
	specs := workloads.All()
	if raceDetectorOn {
		// ~15× slower per run under the race detector; a trimmed matrix
		// still drives every concurrency path (fan-out, broadcast, flush,
		// merge) while the full 14×3×{1,2,4} verdict matrix runs in the
		// uninstrumented pass.
		specs = specs[:4]
		grans = []Granularity{Dynamic}
	}
	for _, spec := range specs {
		for _, g := range grans {
			local := Run(spec.Program(), Options{Granularity: g, Seed: 42})
			for _, n := range []int{1, 2, 4} {
				clustered, err := RunE(spec.Program(), Options{
					Granularity: g, Seed: 42, Workers: 2, Cluster: servers[:n],
				})
				if err != nil {
					t.Fatalf("%s/%s/n=%d: cluster run: %v", spec.Name, g, n, err)
				}
				assertSameReport(t, fmt.Sprintf("%s/%s/n=%d", spec.Name, g, n), local, clustered)
			}
		}
	}
}

// TestClusterMigrationMidStream pins the rebalance path: a slot moved to
// a third server mid-stream must not lose or duplicate any verdict — the
// race set stays byte-identical to the in-process run. (Stats like
// SameEpoch are inflated by the journal replay on the new member, so only
// verdicts are asserted here.)
func TestClusterMigrationMidStream(t *testing.T) {
	addrs := []string{
		startDetectd(t, server.Options{}),
		startDetectd(t, server.Options{}),
	}
	target := startDetectd(t, server.Options{})
	grans := []Granularity{Byte, Dynamic}
	for _, name := range []string{"canneal", "pipedag"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grans {
			local := Run(spec.Program(), Options{Granularity: g, Seed: 42})
			migrated, err := RunE(spec.Program(), Options{
				Granularity: g, Seed: 42, Workers: 2, Cluster: addrs,
				ClusterMigration: &ClusterMigration{
					Slot: -1, To: target, AfterEvents: local.Run.Events / 2,
				},
			})
			if err != nil {
				t.Fatalf("%s/%s: migrated cluster run: %v", name, g, err)
			}
			want, got := sortRaces(local.Races), sortRaces(migrated.Races)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: race sets differ after migration\nlocal (%d): %v\nmigrated (%d): %v",
					name, g, len(want), want, len(got), got)
			}
		}
	}
}

// TestClusterMemberRefused checks a dead member surfaces as a typed
// *MemberError from RunE, naming the member.
func TestClusterMemberRefused(t *testing.T) {
	alive := startDetectd(t, server.Options{})
	spec, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunE(spec.Program(), Options{Cluster: []string{alive, "127.0.0.1:1"}})
	me, ok := err.(*MemberError)
	if !ok {
		t.Fatalf("RunE error = %v (%T), want *MemberError", err, err)
	}
	if me.Addr != "127.0.0.1:1" {
		t.Errorf("MemberError.Addr = %q, want the dead member", me.Addr)
	}
}
