package race

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/workloads"
)

// startDetectd starts a loopback racedetectd for the duration of the test.
func startDetectd(t *testing.T, opts server.Options) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && err != server.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// assertSameReport compares the fields the acceptance gates care about:
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

// TestRemoteEquivalence is the acceptance gate for the remote detection
// service: for every workload and every granularity, streaming to a
// loopback racedetectd must reproduce the in-process race set and access
// statistics exactly.
func TestRemoteEquivalence(t *testing.T) {
	addr := startDetectd(t, server.Options{})
	grans := []Granularity{Byte, Word, Dynamic}
	for _, spec := range workloads.All() {
		for _, g := range grans {
			local := Run(spec.Program(), Options{Granularity: g, Seed: 42})
			remote, err := RunE(spec.Program(), Options{
				Granularity: g, Seed: 42, Workers: 2, Remote: addr,
			})
			if err != nil {
				t.Fatalf("%s/%s: remote run: %v", spec.Name, g, err)
			}
			assertSameReport(t, spec.Name+"/"+g.String(), local, remote)
		}
	}
}

// TestRemoteConnectionRefused checks a dead address surfaces as an error
// from RunE, not a panic or a hang.
func TestRemoteConnectionRefused(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	spec, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunE(spec.Program(), Options{Remote: addr})
	if err == nil {
		t.Fatal("RunE to a dead address succeeded")
	}
}
