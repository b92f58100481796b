package cluster

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// startServer starts a racedetectd on a loopback listener; shut down at
// cleanup (the PR 2 pattern).
func startServer(t *testing.T, opts server.Options) (*server.Server, string) {
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
	return srv, l.Addr().String()
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRingRoundRobinAndMove(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		r := NewRing(n)
		counts := r.Counts(n)
		for m, c := range counts {
			if c < Slots/n || c > Slots/n+1 {
				t.Fatalf("n=%d: member %d owns %d slots, want ~%d", n, m, c, Slots/n)
			}
		}
	}
	r := NewRing(2)
	block := uint64(12345)
	s := r.Slot(block)
	old := r.Owner(block)
	r.Move(s, 7)
	if r.Owner(block) != 7 {
		t.Fatalf("after Move, owner = %d, want 7", r.Owner(block))
	}
	if r.OwnerOfSlot(s) != 7 || old == 7 {
		t.Fatalf("Move did not take effect on slot %d", s)
	}
}

func TestRingSlotDeterministicAndSpread(t *testing.T) {
	r := NewRing(4)
	hit := make(map[int]bool)
	for b := uint64(0); b < 512; b++ {
		s1, s2 := r.Slot(b), r.Slot(b)
		if s1 != s2 {
			t.Fatalf("Slot(%d) not deterministic: %d vs %d", b, s1, s2)
		}
		if s1 < 0 || s1 >= Slots {
			t.Fatalf("Slot(%d) = %d out of range", b, s1)
		}
		hit[s1] = true
	}
	// 512 sequential blocks must not stride into a few slots: the mix
	// function should touch essentially all of them.
	if len(hit) < Slots*3/4 {
		t.Fatalf("512 sequential blocks hit only %d/%d slots", len(hit), Slots)
	}
}

// testOptions is a 2-member cluster configuration against live servers.
func testOptions(t *testing.T, reg *telemetry.Registry, n int) Options {
	t.Helper()
	members := make([]string, n)
	for i := range members {
		_, members[i] = startServer(t, server.Options{})
	}
	return Options{
		Members:   members,
		Hello:     wire.Hello{Workers: 1},
		Telemetry: reg,
	}
}

func TestClusterRouterCountsAndTelemetry(t *testing.T) {
	reg := telemetry.New()
	s, err := Dial(testOptions(t, reg, 2))
	if err != nil {
		t.Fatal(err)
	}
	heap := uint64(1 << 20)
	s.Fork(1, 2)                               // broadcast
	s.Write(1, heap, 4, 10)                    // one piece
	s.Write(2, heap+shadow.BlockSize, 4, 20)   // one piece, another block
	s.Write(1, heap+shadow.BlockSize-2, 4, 30) // straddles a block boundary: 2 pieces
	s.Write(2, event.StackBase+64, 4, 40)      // non-shared, dropped at the router
	s.Join(1, 2)                               // broadcast
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 6 {
		t.Errorf("Events = %d, want 6 (router counts originals, not copies)", rep.Events)
	}
	if rep.Stats.Accesses != 3 {
		t.Errorf("Accesses = %d, want 3 (pre-split)", rep.Stats.Accesses)
	}
	if rep.Stats.NonShared != 1 {
		t.Errorf("NonShared = %d, want 1", rep.Stats.NonShared)
	}
	if got := reg.CounterValue("cluster_broadcast_events_total"); got != 2 {
		t.Errorf("broadcast counter = %d, want 2", got)
	}
	if got := reg.CounterValue("cluster_fanout_events_total"); got != 4 {
		t.Errorf("fanout counter (summed over members) = %d, want 4 pieces", got)
	}
	if got := reg.GaugeValue("cluster_members"); got != 2 {
		t.Errorf("members gauge = %v, want 2", got)
	}
	// The merged LastSeq must cover every member's applied batches.
	batches := reg.CounterValue("client_batches_total")
	if rep.LastSeq != batches {
		t.Errorf("merged LastSeq = %d, want %d (total batch frames)", rep.LastSeq, batches)
	}
}

// TestMemberDiesMidStream kills one member's server mid-stream and checks
// the coordinator surfaces a typed *MemberError naming the member and its
// last acked sequence, while still draining the survivors.
func TestMemberDiesMidStream(t *testing.T) {
	_, addr0 := startServer(t, server.Options{})
	srv1, addr1 := startServer(t, server.Options{})
	s, err := Dial(Options{
		Members: []string{addr0, addr1},
		Hello:   wire.Hello{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three full batches of broadcast sync events: every member applies
	// and, once flushed, acks 3 batch frames, so the watermark is exact.
	for i := 0; i < 3*event.DefaultBatchSize/2; i++ {
		s.Acquire(1, 7)
		s.Release(1, 7)
	}
	for _, m := range s.members {
		if err := m.cl.Flush(); err != nil {
			t.Fatalf("member %s: Flush: %v", m.addr, err)
		}
		if got := m.cl.LastAcked(); got != 3 {
			t.Fatalf("member %s acked %d batches before kill, want 3", m.addr, got)
		}
	}
	// Force-kill member 1: expired context closes its connections and
	// listener, so reconnects fail until the client gives up.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv1.Shutdown(ctx)

	for i := 0; i < event.DefaultBatchSize; i++ {
		s.Acquire(2, 9)
		s.Release(2, 9)
	}
	_, err = s.Close()
	var me *MemberError
	if !errors.As(err, &me) {
		t.Fatalf("Close error = %v (%T), want *MemberError", err, err)
	}
	if me.Addr != addr1 {
		t.Errorf("MemberError.Addr = %s, want %s", me.Addr, addr1)
	}
	if me.LastAcked != 3 {
		t.Errorf("MemberError.LastAcked = %d, want 3", me.LastAcked)
	}
	if me.Unwrap() == nil {
		t.Error("MemberError.Unwrap() = nil, want the transport cause")
	}
}

// TestCoordinatorCloseNoLeak extends the PR 2 leak pattern to the
// coordinator: after Close, no client or coordinator goroutines remain.
func TestCoordinatorCloseNoLeak(t *testing.T) {
	opts := testOptions(t, nil, 2) // servers up before the baseline
	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		s, err := Dial(opts)
		if err != nil {
			t.Fatal(err)
		}
		heap := uint64(1 << 21)
		s.Fork(1, 2)
		for i := 0; i < 500; i++ {
			s.Write(1, heap+uint64(i)*8, 8, 1)
			s.Write(2, heap+uint64(i)*8+1<<16, 8, 2)
		}
		s.Join(1, 2)
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "goroutines to drain", 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
}

// TestMigrationMidStream moves a slot to a third server mid-stream and
// checks membership, routing and the migration counter.
func TestMigrationMidStream(t *testing.T) {
	reg := telemetry.New()
	_, addrA := startServer(t, server.Options{})
	_, addrB := startServer(t, server.Options{})
	_, addrC := startServer(t, server.Options{})
	s, err := Dial(Options{
		Members:   []string{addrA, addrB},
		Hello:     wire.Hello{Workers: 1},
		Telemetry: reg,
		Migration: &Migration{Slot: -1, To: addrC, AfterEvents: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	heap := uint64(1 << 20)
	events := uint64(0)
	s.Fork(1, 2)
	events++
	for i := 0; i < 200; i++ {
		s.Write(1, heap+uint64(i)*shadow.BlockSize, 4, 10)
		s.Write(2, heap+uint64(i)*shadow.BlockSize+8, 4, 20)
		events += 2
		if i == 50 {
			s.Acquire(1, 3)
			s.Release(1, 3)
			events += 2
		}
	}
	s.Join(1, 2)
	events++
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Members(); len(got) != 3 || got[2] != addrC {
		t.Fatalf("Members() = %v, want third member %s", got, addrC)
	}
	if s.movedSlot < 0 {
		t.Fatal("migration did not run")
	}
	if owner := s.ring.OwnerOfSlot(s.movedSlot); owner != 2 {
		t.Errorf("moved slot %d owned by %d, want 2 (the new member)", s.movedSlot, owner)
	}
	if got := reg.CounterValue("cluster_migrations_total"); got != 1 {
		t.Errorf("migrations counter = %d, want 1", got)
	}
	if got := reg.GaugeValue("cluster_members"); got != 3 {
		t.Errorf("members gauge = %v, want 3", got)
	}
	if rep.Events != events {
		t.Errorf("Events = %d, want %d (router count, replay excluded)", rep.Events, events)
	}
}

// recordLog is a slog.Handler that keeps every record it receives.
type recordLog struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordLog) WithGroup(string) slog.Handler            { return h }

func (h *recordLog) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// find returns the attributes of the first record with message msg.
func (h *recordLog) find(msg string) (map[string]string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.recs {
		if r.Message != msg {
			continue
		}
		attrs := map[string]string{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		return attrs, true
	}
	return nil, false
}

// TestMigrationAbortsOnDialFailure checks a dead target cannot hurt the
// session: the ring keeps its owner, the stream completes normally, and
// the abort reaches the configured Logger.
func TestMigrationAbortsOnDialFailure(t *testing.T) {
	_, addrA := startServer(t, server.Options{})
	_, addrB := startServer(t, server.Options{})
	logged := &recordLog{}
	s, err := Dial(Options{
		Members:   []string{addrA, addrB},
		Hello:     wire.Hello{Workers: 1},
		Migration: &Migration{Slot: 0, To: "127.0.0.1:1", AfterEvents: 10},
		Logger:    slog.New(logged),
	})
	if err != nil {
		t.Fatal(err)
	}
	heap := uint64(1 << 20)
	s.Fork(1, 2)
	for i := 0; i < 40; i++ {
		s.Write(1, heap+uint64(i)*16, 4, 1)
	}
	s.Join(1, 2)
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close after aborted migration: %v", err)
	}
	if len(s.members) != 2 {
		t.Fatalf("aborted migration changed membership: %d members", len(s.members))
	}
	if s.movedSlot != -1 {
		t.Fatalf("aborted migration recorded a move: slot %d", s.movedSlot)
	}
	attrs, ok := logged.find("cluster migration aborted")
	if !ok {
		t.Fatal("the aborted migration logged no abort record")
	}
	if attrs["step"] != "dial" || attrs["member"] != "127.0.0.1:1" || attrs["slot"] != "0" || attrs["err"] == "" {
		t.Errorf("abort record attributes %v, want step=dial member=127.0.0.1:1 slot=0 and an error", attrs)
	}
}

func TestDropMovedRaces(t *testing.T) {
	s := &Sink{ring: NewRing(2)}
	// Find two blocks hashing to different slots.
	b1 := uint64(1)
	s.movedSlot = s.ring.Slot(b1)
	s.movedFrom = 0
	var b2 uint64
	for b := uint64(2); ; b++ {
		if s.ring.Slot(b) != s.movedSlot {
			b2 = b
			break
		}
	}
	rep := wire.Report{
		Races: []wire.ReportRace{
			{Addr: b1 << shadow.BlockShift, Tid: 1},
			{Addr: b2 << shadow.BlockShift, Tid: 2},
			{Addr: b1<<shadow.BlockShift + 5, Tid: 3},
		},
		Stats: wire.ReportStats{Races: 3},
	}
	out := s.dropMovedRaces(rep)
	if len(out.Races) != 1 || out.Races[0].Tid != 2 {
		t.Fatalf("dropMovedRaces kept %v, want only the race outside the moved slot", out.Races)
	}
	if out.Stats.Races != 1 {
		t.Fatalf("Stats.Races = %d, want 1", out.Stats.Races)
	}
}

func TestDialFailureIsMemberError(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	_, err := Dial(Options{
		Members: []string{addr, "127.0.0.1:1"},
		Hello:   wire.Hello{Workers: 1},
	})
	var me *MemberError
	if !errors.As(err, &me) {
		t.Fatalf("Dial error = %v (%T), want *MemberError", err, err)
	}
	if me.Addr != "127.0.0.1:1" {
		t.Errorf("MemberError.Addr = %s, want the unreachable member", me.Addr)
	}
}
