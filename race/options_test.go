package race

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestOptionsValidate pins the option validation table: each invalid
// combination must yield a *OptionsError naming the offending field, and
// every valid combination must pass.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string // "" = valid
	}{
		{"zero-value", Options{}, ""},
		{"fasttrack-dynamic-workers", Options{Granularity: Dynamic, Workers: 8}, ""},
		{"eraser", Options{Tool: Eraser}, ""},
		{"multirace", Options{Tool: MultiRace}, ""},
		{"remote-fasttrack", Options{Remote: "localhost:7474"}, ""},
		{"limits", Options{MemLimitBytes: 1 << 30, Timeout: time.Second, Quantum: 100}, ""},
		{"stats-interval", Options{StatsInterval: time.Second}, ""},
		{"metrics-addr", Options{MetricsAddr: "127.0.0.1:0", Workers: 2}, ""},
		{"metrics-addr-remote-async", Options{MetricsAddr: "127.0.0.1:0", Remote: "localhost:7474"}, ""},
		{"cluster", Options{Cluster: []string{"localhost:7474", "localhost:7475"}}, ""},
		{"cluster-single", Options{Cluster: []string{"127.0.0.1:7474"}}, ""},
		{"cluster-migration", Options{
			Cluster:          []string{"localhost:7474", "localhost:7475"},
			ClusterMigration: &ClusterMigration{Slot: -1, To: "localhost:7476", AfterEvents: 100},
		}, ""},

		{"unknown-tool", Options{Tool: MultiRace + 1}, "Tool"},
		{"unknown-tool-big", Options{Tool: 200}, "Tool"},
		{"unknown-granularity", Options{Granularity: Dynamic + 1}, "Granularity"},
		{"negative-workers", Options{Workers: -1}, "Workers"},
		{"negative-quantum", Options{Quantum: -5}, "Quantum"},
		{"negative-timeout", Options{Timeout: -time.Second}, "Timeout"},
		{"negative-memlimit", Options{MemLimitBytes: -1}, "MemLimitBytes"},
		{"remote-wrong-tool", Options{Tool: DRD, Remote: "localhost:7474"}, "Remote"},
		{"remote-empty-ish", Options{Remote: "   "}, "Remote"},
		{"remote-no-port", Options{Remote: "localhost"}, "Remote"},
		{"remote-empty-host", Options{Remote: ":7474"}, "Remote"},
		{"cluster-and-remote", Options{Remote: "localhost:7474", Cluster: []string{"localhost:7475"}}, "Cluster"},
		{"cluster-wrong-tool", Options{Tool: Eraser, Cluster: []string{"localhost:7474"}}, "Cluster"},
		{"cluster-empty-member", Options{Cluster: []string{"localhost:7474", ""}}, "Cluster"},
		{"cluster-blank-member", Options{Cluster: []string{"localhost:7474", "  "}}, "Cluster"},
		{"cluster-no-port-member", Options{Cluster: []string{"localhost"}}, "Cluster"},
		{"cluster-duplicate-member", Options{Cluster: []string{"localhost:7474", "localhost:7474"}}, "Cluster"},
		{"migration-without-cluster", Options{
			ClusterMigration: &ClusterMigration{To: "localhost:7476"},
		}, "ClusterMigration"},
		{"migration-bad-target", Options{
			Cluster:          []string{"localhost:7474"},
			ClusterMigration: &ClusterMigration{To: "nowhere"},
		}, "ClusterMigration"},
		{"migration-bad-slot", Options{
			Cluster:          []string{"localhost:7474"},
			ClusterMigration: &ClusterMigration{Slot: 64, To: "localhost:7476"},
		}, "ClusterMigration"},
		{"negative-stats-interval", Options{StatsInterval: -time.Second}, "StatsInterval"},
		{"budget-nan", Options{Budget: math.NaN()}, "Budget"},
		{"budget-nan-eraser", Options{Tool: Eraser, Budget: math.NaN()}, "Budget"},
		{"trace-sample-nan", Options{TraceSample: math.NaN()}, "TraceSample"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			var oe *OptionsError
			if !errors.As(err, &oe) {
				t.Fatalf("want *OptionsError, got %v", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("flagged field %q, want %q (err: %v)", oe.Field, tc.field, err)
			}
			if oe.Error() == "" || oe.Reason == "" {
				t.Fatalf("empty error detail: %+v", oe)
			}
		})
	}
}

// TestRunEInvalidOptions checks RunE rejects bad options before running
// anything, and Run panics with the same typed error.
func TestRunEInvalidOptions(t *testing.T) {
	bad := Options{Workers: -3}
	prog := Program{Name: "noop", Main: func(*Thread) {}}
	if _, err := RunE(prog, bad); err == nil {
		t.Fatal("RunE accepted negative Workers")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on invalid options")
		}
		if _, ok := r.(*OptionsError); !ok {
			t.Fatalf("Run panicked with %T, want *OptionsError", r)
		}
	}()
	Run(prog, bad)
}
