package race

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/workloads"
)

// TestTelemetryReconciliation pins the instrumentation contract: every
// telemetry counter is bumped at exactly the site that bumps the
// corresponding Stats field, so on a serial run (Workers=0, one detector,
// no merging) the registry's sums equal the report's detector statistics
// across the whole 11-workload suite.
func TestTelemetryReconciliation(t *testing.T) {
	for _, s := range workloads.All() {
		t.Run(s.Name, func(t *testing.T) {
			reg := telemetry.New()
			rep, err := RunE(s.Program(), Options{
				Granularity: Dynamic,
				Seed:        42,
				Telemetry:   reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			d := rep.Detector
			checks := []struct {
				metric string
				want   uint64
			}{
				{"detector_accesses_total", d.Accesses},
				{"detector_same_epoch_hits_total", d.SameEpoch},
				{"detector_loc_creations_total", d.LocCreations},
				{"detector_sharing_comparisons_total", d.SharingComparisons},
				{"detector_races_total", uint64(len(rep.Races))},
				{"detector_races_suppressed_total", rep.Suppressed},
				// Plane-labeled families sum across both shadow planes.
				{"shadow_node_allocs_total", d.NodeAllocs},
				{"shadow_node_recycles_total", d.NodeRecycles},
				{"shadow_node_merges_total", d.Merges},
				{"shadow_node_splits_total", d.Splits},
			}
			for _, c := range checks {
				if got := reg.CounterValue(c.metric); got != c.want {
					t.Errorf("%s = %d, want %d (Stats reconciliation)", c.metric, got, c.want)
				}
			}
			// The state machine and sharing-decision families have no
			// single Stats twin, but they must be active on any workload
			// that allocates shadow state, and every location that reached
			// a sharing verdict did so through exactly one first-epoch
			// decision path.
			if reg.CounterValue("detector_state_transitions_total") == 0 && d.NodeAllocs > 0 {
				t.Error("state-transition counters silent on a run that allocated shadow nodes")
			}
			if d.Merges > 0 && reg.CounterValue("detector_sharing_decisions_total") == 0 {
				t.Error("sharing-decision counters silent on a run that merged clock nodes")
			}
		})
	}
}

// TestTelemetryShardedMatchesSerial checks the pipeline shares one atomic
// instrument set across shards: the summed counters of a sharded run
// equal the serial run's for the same program and seed.
func TestTelemetryShardedMatchesSerial(t *testing.T) {
	s, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	values := func(workers int) map[string]uint64 {
		reg := telemetry.New()
		if _, err := RunE(s.Program(), Options{
			Granularity: Dynamic, Seed: 42, Workers: workers, Telemetry: reg,
		}); err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, m := range []string{
			"detector_accesses_total",
			"detector_loc_creations_total",
			"detector_races_total",
		} {
			out[m] = reg.CounterValue(m)
		}
		return out
	}
	serial, sharded := values(0), values(3)
	for m, want := range serial {
		if got := sharded[m]; got != want {
			t.Errorf("sharded %s = %d, want %d (serial)", m, got, want)
		}
	}
}

// TestMetricsEndpoint runs a sharded detection with a live -metrics-addr
// endpoint and asserts the exposition carries every family the issue
// promises: state transitions, sharing decisions, per-shard event
// counters, the queue-depth gauge, and the batch latency histogram.
func TestMetricsEndpoint(t *testing.T) {
	s, err := workloads.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Granularity: Dynamic,
		Seed:        42,
		Workers:     2,
		MetricsAddr: "127.0.0.1:0",
	}
	obs, err := startObservability(&opts)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.stop()
	if opts.Telemetry == nil {
		t.Fatal("startObservability did not install a registry for MetricsAddr")
	}
	if _, err := runLocal(s.Name, programSource(s.Program(), opts), opts); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", obs.ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	text := string(body)
	for _, family := range []string{
		"detector_accesses_total",
		"detector_state_transitions_total",
		"detector_sharing_decisions_total",
		`pipeline_shard_events_total{shard="0"}`,
		`pipeline_shard_events_total{shard="1"}`,
		"pipeline_queue_depth",
		"pipeline_batch_apply_ns_bucket",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	// The JSON document serves the same registry.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/vars", obs.ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	vars, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(vars, []byte("detector_accesses_total")) {
		t.Error("/debug/vars missing detector_accesses_total")
	}
}

// TestStatsProgress runs with a short StatsInterval and a captured writer
// and checks the periodic progress line carries the live counters.
func TestStatsProgress(t *testing.T) {
	s, err := workloads.ByName("ffmpeg")
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	_, err = RunE(s.Program(), Options{
		Granularity:   Dynamic,
		Seed:          42,
		StatsInterval: time.Millisecond,
		StatsWriter:   &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "progress t=") || !strings.Contains(out, "accesses=") {
		t.Fatalf("no progress lines captured:\n%s", out)
	}
}

// TestProgressLine pins the progress report's rendering against a
// hand-populated registry.
func TestProgressLine(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("detector_accesses_total", "").Add(1000)
	reg.Counter("detector_same_epoch_hits_total", "").Add(400)
	reg.Counter("detector_races_total", "").Add(2)
	o := &observer{reg: reg}
	line := o.progressLine(1500 * time.Millisecond)
	want := "progress t=1.5s accesses=1000 same_epoch=400 races=2"
	if line != want {
		t.Fatalf("progressLine = %q, want %q", line, want)
	}
	reg.Counter("client_events_total", "").Add(7)
	reg.Counter("client_batches_total", "").Add(3)
	if line := o.progressLine(time.Second); !strings.Contains(line, "streamed=7 batches=3") {
		t.Fatalf("streamed fields missing: %q", line)
	}
	// A Remote or Cluster run's detectors count into the servers'
	// registries, so its line carries only the client's counters.
	streamed := &observer{reg: reg, streamed: true}
	if line, want := streamed.progressLine(2*time.Second), "progress t=2.0s streamed=7 batches=3"; line != want {
		t.Fatalf("streamed progressLine = %q, want %q", line, want)
	}
}

// TestStatsProgressRemote runs a loopback Remote session with a short
// StatsInterval: its progress lines report what the client streamed and
// no detector counters, which only the server holds.
func TestStatsProgressRemote(t *testing.T) {
	s, err := workloads.ByName("ffmpeg")
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	_, err = RunE(s.Program(), Options{
		Granularity:   Dynamic,
		Seed:          42,
		Remote:        startDetectd(t, server.Options{}),
		StatsInterval: time.Millisecond,
		StatsWriter:   &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "progress t=") || !strings.Contains(out, "streamed=") {
		t.Fatalf("no streamed progress lines captured:\n%s", out)
	}
	if strings.Contains(out, "accesses=") {
		t.Fatalf("a Remote run printed detector counters it cannot see:\n%s", out)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the progress goroutine
// writes while the test's main goroutine eventually reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
