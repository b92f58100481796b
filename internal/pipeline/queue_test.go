package pipeline

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/telemetry"
)

// waitCount polls c until it reaches want, failing after a deadline.
func waitCount(t *testing.T, c *telemetry.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("park counter stuck at %d, want %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRingProducerPark pins pipeline_ring_parks_total{side=producer}: a
// ship that finds its worker queue full counts exactly one park, then
// blocks until the worker makes room.
func TestRingProducerPark(t *testing.T) {
	parks := telemetry.New().Counter("parks", "", telemetry.Labels{"side": "producer"})
	p := &Pipeline{parks: parks}
	q := make(chan item, 1)
	q <- item{}
	sent := make(chan struct{})
	go func() {
		p.send(q, item{})
		close(sent)
	}()
	waitCount(t, parks, 1) // nothing drains the full queue until the park is counted
	<-q
	<-sent
	<-q
	if got := parks.Load(); got != 1 {
		t.Fatalf("producer parks = %d, want 1", got)
	}
	p.send(q, item{}) // room to spare: no park
	if got := parks.Load(); got != 1 {
		t.Fatalf("producer parks = %d after an unblocked ship, want 1", got)
	}
}

// TestRingConsumerPark pins pipeline_ring_parks_total{side=consumer}: a
// worker that finds its queue empty counts exactly one park, then blocks
// until a batch arrives; a closed, drained queue ends the worker without
// one.
func TestRingConsumerPark(t *testing.T) {
	parks := telemetry.New().Counter("parks", "", telemetry.Labels{"side": "consumer"})
	w := &worker{q: make(chan item, 1), parks: parks}
	got := make(chan bool)
	go func() {
		_, ok := w.recv()
		got <- ok
	}()
	waitCount(t, parks, 1) // nothing is sent until the park is counted
	w.q <- item{}
	if !<-got {
		t.Fatal("recv on an open queue reported closed")
	}
	close(w.q)
	if _, ok := w.recv(); ok {
		t.Fatal("recv on a closed, drained queue returned a batch")
	}
	if c := parks.Load(); c != 1 {
		t.Fatalf("consumer parks = %d, want 1 (a closed queue never blocks)", c)
	}
}

// TestRingZeroAlloc pins that the worker-queue hand-off, park accounting
// included, allocates nothing.
func TestRingZeroAlloc(t *testing.T) {
	reg := telemetry.New()
	p := &Pipeline{parks: reg.Counter("parks", "", telemetry.Labels{"side": "producer"})}
	w := &worker{q: make(chan item, 8), parks: reg.Counter("parks", "", telemetry.Labels{"side": "consumer"})}
	b := event.GetBatch()
	defer event.PutBatch(b)
	it := item{b: b}
	if got := testing.AllocsPerRun(1000, func() {
		p.send(w.q, it)
		if _, ok := w.recv(); !ok {
			t.Fatal("recv failed")
		}
	}); got != 0 {
		t.Errorf("queue send+recv: %v allocs/run, want 0", got)
	}
}

// TestRingCloseWakesParkedConsumer pins shutdown of an idle shard: a
// worker parked on its empty queue wakes when the router closes the queue
// and reports it closed.
func TestRingCloseWakesParkedConsumer(t *testing.T) {
	parks := telemetry.New().Counter("parks", "", telemetry.Labels{"side": "consumer"})
	w := &worker{q: make(chan item, 4), parks: parks}
	got := make(chan bool)
	go func() {
		_, ok := w.recv()
		got <- ok
	}()
	waitCount(t, parks, 1)
	close(w.q)
	select {
	case ok := <-got:
		if ok {
			t.Fatal("recv on a closed, empty queue returned a batch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer did not wake on close")
	}
}

// TestRingCloseWhileFull pins that closing a full queue loses nothing:
// the worker drains every queued batch in order, then sees the close.
func TestRingCloseWhileFull(t *testing.T) {
	const depth = 4
	parks := telemetry.New().Counter("parks", "", telemetry.Labels{"side": "consumer"})
	w := &worker{q: make(chan item, depth), parks: parks}
	for i := 0; i < depth; i++ {
		w.q <- item{b: &event.Batch{Trace: uint64(i)}}
	}
	close(w.q)
	for i := 0; i < depth; i++ {
		it, ok := w.recv()
		if !ok || it.b.Trace != uint64(i) {
			t.Fatalf("recv %d: ok=%v batch=%v, want batch %d", i, ok, it.b, i)
		}
	}
	if _, ok := w.recv(); ok {
		t.Fatal("recv past the drained batches returned one")
	}
	if c := parks.Load(); c != 0 {
		t.Fatalf("consumer parks = %d draining a full queue, want 0", c)
	}
}

// TestRingStress runs a producer and a worker against a shallow queue:
// every batch arrives exactly once and in order, and each side counts at
// most one park per hand-off.
func TestRingStress(t *testing.T) {
	const n = 20000
	reg := telemetry.New()
	p := &Pipeline{parks: reg.Counter("parks", "", telemetry.Labels{"side": "producer"})}
	w := &worker{q: make(chan item, 2), parks: reg.Counter("parks", "", telemetry.Labels{"side": "consumer"})}
	go func() {
		for i := 0; i < n; i++ {
			p.send(w.q, item{b: &event.Batch{Trace: uint64(i)}})
		}
		close(w.q)
	}()
	next := uint64(0)
	for {
		it, ok := w.recv()
		if !ok {
			break
		}
		if it.b.Trace != next {
			t.Fatalf("batch %d arrived at position %d", it.b.Trace, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("received %d batches, want %d", next, n)
	}
	if pp, cp := p.parks.Load(), w.parks.Load(); pp > n || cp > n {
		t.Fatalf("parks producer %d consumer %d exceed %d hand-offs", pp, cp, n)
	}
}
