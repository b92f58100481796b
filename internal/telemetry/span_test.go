package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestNewTraceID pins the ID contract: non-zero always, and no collision
// across a realistic burst.
func TestNewTraceID(t *testing.T) {
	seen := make(map[uint64]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned the reserved zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %#x after %d mints", id, i)
		}
		seen[id] = true
	}
}

// TestSampled pins the deterministic sampler: same key → same decision,
// rate 0 never samples, rate 1 always does, and a mid rate lands roughly
// where it should over many keys.
func TestSampled(t *testing.T) {
	for key := uint64(1); key < 100; key++ {
		if Sampled(key, 0) {
			t.Fatalf("key %d sampled at rate 0", key)
		}
		if !Sampled(key, 1) {
			t.Fatalf("key %d not sampled at rate 1", key)
		}
		if Sampled(key, 0.5) != Sampled(key, 0.5) {
			t.Fatalf("key %d: non-deterministic decision", key)
		}
	}
	hits := 0
	const n = 10000
	for key := uint64(0); key < n; key++ {
		if Sampled(key, 0.25) {
			hits++
		}
	}
	if hits < n/25/2 || hits > n/2 {
		t.Fatalf("rate 0.25 sampled %d of %d keys", hits, n)
	}
}

// TestRecordSpanRoundTrip checks a recorded span survives the JSON span
// sink and is mirrored into the Chrome event stream.
func TestRecordSpanRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.RecordSpan(SpanRecord{
		Trace: 0xabc, Span: 0xdef, Parent: 0x123,
		Name: "server.dispatch", Process: "racedetectd",
		Dur:  1500,
		Args: map[string]any{"session": 7},
	})
	var buf bytes.Buffer
	if err := tr.WriteSpansJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f SpanFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("span sink is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(f.Spans))
	}
	s := f.Spans[0]
	if s.Trace != 0xabc || s.Span != 0xdef || s.Parent != 0x123 || s.Name != "server.dispatch" {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
	if s.Start == 0 {
		t.Fatal("Start not defaulted")
	}
	// Mirrored Chrome event with the IDs in args.
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "server.dispatch" {
		t.Fatalf("chrome mirror missing: %+v", evs)
	}
	if evs[0].Args["trace"] != "0000000000000abc" {
		t.Fatalf("chrome mirror args: %+v", evs[0].Args)
	}
}

// TestTracerConcurrentSpanWriters hammers one tracer from many goroutines
// mixing RecordSpan with phase Span/end pairs, then checks nothing was
// lost and both export formats stay valid. Run under -race this also
// proves the locking.
func TestTracerConcurrentSpanWriters(t *testing.T) {
	tr := NewTracer()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.RecordSpan(SpanRecord{
					Trace: NewTraceID(), Span: NewTraceID(),
					Name: "shard.apply", Process: "pipeline",
					Dur:  int64(i),
					Args: map[string]any{"writer": w},
				})
				end := tr.Span("phase")
				end()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != writers*perWriter {
		t.Fatalf("lost spans: got %d, want %d", got, writers*perWriter)
	}
	var buf bytes.Buffer
	if err := tr.WriteSpansJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f SpanFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("span JSON invalid after concurrent writes: %v", err)
	}
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace JSON invalid after concurrent writes")
	}
}

// TestBoundedTracerDropsSpans checks the bounded tracer stays bounded for
// span records too (the server's always-on sink must not grow without
// limit under a firehose of traced batches).
func TestBoundedTracerDropsSpans(t *testing.T) {
	tr := NewBoundedTracer(16)
	for i := 0; i < 100; i++ {
		tr.RecordSpan(SpanRecord{Trace: NewTraceID(), Span: NewTraceID(), Name: "s"})
	}
	if got := len(tr.Spans()); got > 16 {
		t.Fatalf("bounded tracer holds %d spans, limit 16", got)
	}
}

// TestHistogramExemplars pins exemplar recording: ObserveTraced stamps
// the observation's bucket with its trace ID, plain Observe leaves
// exemplars alone, and TailExemplar surfaces the slowest traced bucket.
func TestHistogramExemplars(t *testing.T) {
	r := New()
	h := r.Histogram("test_latency_ns", "test")
	h.Observe(10) // untraced: no exemplar anywhere
	if s := h.Snapshot(); s.TailExemplar() != 0 {
		t.Fatalf("untraced observation produced exemplar %#x", s.TailExemplar())
	}
	h.ObserveTraced(100, 0xaaa)   // mid bucket
	h.ObserveTraced(1<<20, 0xbbb) // tail bucket
	h.ObserveTraced(1<<20, 0)     // zero trace must not overwrite
	s := h.Snapshot()
	if got := s.TailExemplar(); got != 0xbbb {
		t.Fatalf("TailExemplar = %#x, want 0xbbb", got)
	}
	found := 0
	for _, e := range s.Exemplars {
		if e != 0 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("%d buckets carry exemplars, want 2", found)
	}
	// A later traced observation in the same tail bucket replaces the
	// exemplar — most-recent wins, so operators chase a live trace.
	h.ObserveTraced(1<<20, 0xccc)
	if got := h.Snapshot().TailExemplar(); got != 0xccc {
		t.Fatalf("TailExemplar after update = %#x, want 0xccc", got)
	}
}

// TestDiscardLogger pins the logger that stands in when none is
// configured: every level disabled, nothing panics.
func TestDiscardLogger(t *testing.T) {
	d := NewDiscardLogger()
	if d.Enabled(nil, 0) {
		t.Error("discard logger claims to be enabled")
	}
	d.Info("ignored")
	d.With("member", "b:2").WithGroup("net").Warn("ignored", "addr", "x")
}
