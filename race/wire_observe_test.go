package race

import (
	"testing"

	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/workloads"
)

// TestWireTelemetryReconciliation pins the wire byte accounting the same
// way TestTelemetryReconciliation pins the detector counters. Raw bytes
// are exactly events x wire.RecSize, and payload bytes are exactly the
// columnar encoding of the same stream cut into the same batches —
// re-encoded here from a local run of the program. The payload must beat
// the fixed-width reference by the >=4x the columnar codec promises, and
// the live compression-ratio gauge must say so too.
func TestWireTelemetryReconciliation(t *testing.T) {
	addr := startDetectd(t, server.Options{})
	spec, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	opts := Options{Granularity: Dynamic, Seed: 42, Workers: 2, Remote: addr, Telemetry: reg}
	if _, err := RunE(spec.Program(), opts); err != nil {
		t.Fatal(err)
	}

	// The client flushes fixed event.DefaultBatchSize batches, so an
	// encoder with the default target cuts the same run identically.
	var events, payload uint64
	enc := event.Encoder{Flush: func(b *event.Batch) {
		events += uint64(len(b.Recs))
		payload += uint64(len(wire.AppendColumnar(nil, b.Recs)))
		event.PutBatch(b)
	}}
	sim.Run(spec.Program(), &enc, opts.engineOptions())
	enc.Close()

	if events == 0 {
		t.Fatal("run streamed no events")
	}
	if got := reg.CounterValue("client_events_total"); got != events {
		t.Errorf("client_events_total = %d, want %d", got, events)
	}
	raw := reg.CounterValue("wire_raw_bytes_total")
	if want := events * wire.RecSize; raw != want {
		t.Errorf("wire_raw_bytes_total = %d, want events x %d = %d", raw, wire.RecSize, want)
	}
	if got := reg.CounterValue("wire_payload_bytes_total"); got != payload {
		t.Errorf("wire_payload_bytes_total = %d, want the re-encoded stream's %d", got, payload)
	}
	if payload*4 > raw {
		t.Errorf("columnar payload %d bytes for %d raw: less than 4x compression (%.2f B/event)",
			payload, raw, float64(payload)/float64(events))
	}
	if ratio := reg.GaugeValue("wire_compression_ratio"); ratio < 4 {
		t.Errorf("wire_compression_ratio = %.2f, want >= 4", ratio)
	}
}

// TestRingTelemetry checks the worker queues register their occupancy and
// park instrumentation (the pipeline_ring_* families) on an ordinary local
// sharded run.
func TestRingTelemetry(t *testing.T) {
	spec, err := workloads.ByName("ffmpeg")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	if _, err := RunE(spec.Program(), Options{
		Granularity: Dynamic, Seed: 42, Workers: 2, Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	parkSides := map[string]bool{}
	reg.Each(func(m telemetry.Metric) {
		families[m.Name] = true
		if m.Name == "pipeline_ring_parks_total" {
			parkSides[m.Labels["side"]] = true
		}
	})
	for _, want := range []string{
		"pipeline_ring_parks_total",
		"pipeline_ring_occupancy",
	} {
		if !families[want] {
			t.Errorf("sharded run did not register %s", want)
		}
	}
	for _, side := range []string{"producer", "consumer"} {
		if !parkSides[side] {
			t.Errorf("pipeline_ring_parks_total missing side=%q series", side)
		}
	}
}
