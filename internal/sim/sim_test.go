package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/vc"
)

// logSink records a readable trace of every event.
type logSink struct{ events []string }

func (l *logSink) add(f string, args ...any) { l.events = append(l.events, fmt.Sprintf(f, args...)) }

func (l *logSink) Read(t vc.TID, a uint64, s uint32, _ event.PC)  { l.add("r%d:%x/%d", t, a, s) }
func (l *logSink) Write(t vc.TID, a uint64, s uint32, _ event.PC) { l.add("w%d:%x/%d", t, a, s) }
func (l *logSink) Acquire(t vc.TID, m event.LockID)               { l.add("acq%d:%d", t, m) }
func (l *logSink) Release(t vc.TID, m event.LockID)               { l.add("rel%d:%d", t, m) }
func (l *logSink) AcquireShared(t vc.TID, m event.LockID)         { l.add("racq%d:%d", t, m) }
func (l *logSink) ReleaseShared(t vc.TID, m event.LockID)         { l.add("rrel%d:%d", t, m) }
func (l *logSink) Fork(p, c vc.TID)                               { l.add("fork%d->%d", p, c) }
func (l *logSink) Join(p, c vc.TID)                               { l.add("join%d<-%d", p, c) }
func (l *logSink) BarrierArrive(t vc.TID, b event.BarrierID)      { l.add("ba%d:%d", t, b) }
func (l *logSink) BarrierDepart(t vc.TID, b event.BarrierID)      { l.add("bd%d:%d", t, b) }
func (l *logSink) Malloc(t vc.TID, a, s uint64)                   { l.add("m%d:%x/%d", t, a, s) }
func (l *logSink) Free(t vc.TID, a, s uint64)                     { l.add("f%d:%x/%d", t, a, s) }

func (l *logSink) String() string { return strings.Join(l.events, " ") }

func index(l *logSink, ev string) int {
	for i, e := range l.events {
		if e == ev {
			return i
		}
	}
	return -1
}

func TestSingleThreadSequence(t *testing.T) {
	l := &logSink{}
	st := Run(Program{Name: "seq", Main: func(m *Thread) {
		m.Write(0x10, 4)
		m.Read(0x10, 4)
	}}, l, Options{})
	if got := l.String(); got != "w0:10/4 r0:10/4" {
		t.Errorf("trace = %q", got)
	}
	if st.Events != 2 || st.Accesses != 2 || st.Threads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) string {
		l := &logSink{}
		Run(Program{Name: "det", Main: func(m *Thread) {
			var hs []*Thread
			for i := 0; i < 3; i++ {
				i := i
				hs = append(hs, m.Go(func(w *Thread) {
					for j := 0; j < 30; j++ {
						w.Write(uint64(0x1000+i*64+j), 1)
					}
				}))
			}
			for _, h := range hs {
				m.Join(h)
			}
		}}, l, Options{Seed: seed, Quantum: 7})
		return l.String()
	}
	if run(5) != run(5) {
		t.Error("same seed must replay identically")
	}
	if run(5) == run(6) {
		t.Error("different seeds should interleave differently")
	}
}

func TestMutualExclusionInTrace(t *testing.T) {
	// Between acquire and release of a lock, no other thread's acquire of
	// that lock may appear.
	l := &logSink{}
	Run(Program{Name: "mutex", Main: func(m *Thread) {
		mu := m.NewLock()
		var hs []*Thread
		for i := 0; i < 4; i++ {
			hs = append(hs, m.Go(func(w *Thread) {
				for j := 0; j < 25; j++ {
					w.Lock(mu)
					w.Write(0x99, 1)
					w.Unlock(mu)
				}
			}))
		}
		for _, h := range hs {
			m.Join(h)
		}
	}}, l, Options{Seed: 3, Quantum: 3})

	var holder vc.TID = vc.NoTID
	for _, e := range l.events {
		var tid vc.TID
		var lid int
		if n, _ := fmt.Sscanf(e, "acq%d:%d", &tid, &lid); n == 2 && !strings.HasPrefix(e, "ba") {
			if holder != vc.NoTID {
				t.Fatalf("acquire by %d while %d holds the lock", tid, holder)
			}
			holder = tid
		}
		if n, _ := fmt.Sscanf(e, "rel%d:%d", &tid, &lid); n == 2 {
			if holder != tid {
				t.Fatalf("release by %d but holder is %d", tid, holder)
			}
			holder = vc.NoTID
		}
	}
}

func TestForkBeforeChildEvents(t *testing.T) {
	l := &logSink{}
	Run(Program{Name: "fork", Main: func(m *Thread) {
		c := m.Go(func(w *Thread) { w.Write(0x1, 1) })
		m.Join(c)
	}}, l, Options{Seed: 9})
	if fi, wi := index(l, "fork0->1"), index(l, "w1:1/1"); fi < 0 || wi < 0 || fi > wi {
		t.Errorf("fork must precede the child's first event: %q", l)
	}
}

func TestJoinAfterChildEvents(t *testing.T) {
	l := &logSink{}
	Run(Program{Name: "join", Main: func(m *Thread) {
		c := m.Go(func(w *Thread) {
			for i := 0; i < 100; i++ {
				w.Write(0x1, 1)
			}
		})
		m.Join(c)
		m.Write(0x2, 1)
	}}, l, Options{Seed: 11, Quantum: 5})
	ji := index(l, "join0<-1")
	if ji < 0 {
		t.Fatal("no join event")
	}
	for _, e := range l.events[ji:] {
		if strings.HasPrefix(e, "w1:") {
			t.Fatal("child event after join")
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	// All arrives precede all departs, generation by generation.
	l := &logSink{}
	Run(Program{Name: "barrier", Main: func(m *Thread) {
		const n = 3
		b := m.NewBarrier(n)
		var hs []*Thread
		for i := 0; i < n-1; i++ {
			hs = append(hs, m.Go(func(w *Thread) {
				for g := 0; g < 4; g++ {
					w.Write(0x5, 1)
					w.Barrier(b)
				}
			}))
		}
		for g := 0; g < 4; g++ {
			m.Write(0x5, 1)
			m.Barrier(b)
		}
		for _, h := range hs {
			m.Join(h)
		}
	}}, l, Options{Seed: 21, Quantum: 2})

	arrived, departed := 0, 0
	for _, e := range l.events {
		switch {
		case strings.HasPrefix(e, "ba"):
			if departed%3 != 0 {
				t.Fatalf("arrive while departs pending: %q", l)
			}
			arrived++
		case strings.HasPrefix(e, "bd"):
			if arrived%3 != 0 {
				t.Fatalf("depart before all arrived: %q", l)
			}
			departed++
		}
	}
	if arrived != 12 || departed != 12 {
		t.Errorf("arrived=%d departed=%d", arrived, departed)
	}
}

func TestCondWaitSignal(t *testing.T) {
	// Classic handoff: consumer waits until producer sets ready.
	done := false
	Run(Program{Name: "cond", Main: func(m *Thread) {
		mu := m.NewLock()
		cv := m.NewCond()
		ready := false
		c := m.Go(func(w *Thread) {
			w.Lock(mu)
			for !ready {
				w.Wait(cv, mu)
			}
			w.Unlock(mu)
			done = true
		})
		m.Lock(mu)
		ready = true
		m.Signal(cv)
		m.Unlock(mu)
		m.Join(c)
	}}, event.Nop{}, Options{Seed: 2})
	if !done {
		t.Error("waiter never resumed")
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	woken := 0
	Run(Program{Name: "bcast", Main: func(m *Thread) {
		mu := m.NewLock()
		cv := m.NewCond()
		go_ := false
		var hs []*Thread
		for i := 0; i < 5; i++ {
			hs = append(hs, m.Go(func(w *Thread) {
				w.Lock(mu)
				for !go_ {
					w.Wait(cv, mu)
				}
				w.Unlock(mu)
				woken++
			}))
		}
		// Let every waiter block first.
		for i := 0; i < 100; i++ {
			m.Yield()
		}
		m.Lock(mu)
		go_ = true
		m.Broadcast(cv)
		m.Unlock(mu)
		for _, h := range hs {
			m.Join(h)
		}
	}}, event.Nop{}, Options{Seed: 4})
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestAllocatorReuseAndStats(t *testing.T) {
	var first, second uint64
	st := Run(Program{Name: "alloc", Main: func(m *Thread) {
		first = m.Malloc(100)
		m.Free(first)
		second = m.Malloc(100) // same size class: reused
		big := m.Malloc(1000)
		m.Free(second)
		m.Free(big)
	}}, event.Nop{}, Options{})
	if first != second {
		t.Errorf("allocator should reuse the freed block: %#x vs %#x", first, second)
	}
	if st.Mallocs != 3 || st.Frees != 3 {
		t.Errorf("mallocs=%d frees=%d", st.Mallocs, st.Frees)
	}
	// Peak: 104 (rounded) + 1000 live simultaneously.
	if st.PeakHeapBytes != 104+1000 {
		t.Errorf("peak heap = %d", st.PeakHeapBytes)
	}
	if st.AllocBytes != 104+104+1000 {
		t.Errorf("alloc bytes = %d", st.AllocBytes)
	}
}

func TestFreeUnallocatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Run(Program{Name: "badfree", Main: func(m *Thread) {
		m.Free(0xdeadbeef)
	}}, event.Nop{}, Options{})
}

func TestUnlockNotOwnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Run(Program{Name: "badunlock", Main: func(m *Thread) {
		l := m.NewLock()
		m.Unlock(l)
	}}, event.Nop{}, Options{})
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	Run(Program{Name: "deadlock", Main: func(m *Thread) {
		a, b := m.NewLock(), m.NewLock()
		c := m.Go(func(w *Thread) {
			w.Lock(b)
			for i := 0; i < 10; i++ {
				w.Yield()
			}
			w.Lock(a)
		})
		m.Lock(a)
		for i := 0; i < 10; i++ {
			m.Yield()
		}
		m.Lock(b)
		m.Join(c)
	}}, event.Nop{}, Options{Seed: 1})
}

func TestMaxEventsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected event-budget panic")
		}
	}()
	Run(Program{Name: "runaway", Main: func(m *Thread) {
		for {
			m.Write(0x1, 1)
		}
	}}, event.Nop{}, Options{MaxEvents: 1000})
}

func TestDeadlineTimesOut(t *testing.T) {
	st := Run(Program{Name: "slow", Main: func(m *Thread) {
		for i := 0; i < 1_000_000_000; i++ {
			m.Write(0x1, 1)
		}
	}}, event.Nop{}, Options{Deadline: time.Now().Add(20 * time.Millisecond)})
	if !st.TimedOut {
		t.Error("run should have timed out")
	}
}

// TestPassedDeadlineStopsEarly checks that a deadline already passed stops
// the run within the first deadlineEvery scheduling decisions, each of
// which delivers at most one quantum of events.
func TestPassedDeadlineStopsEarly(t *testing.T) {
	c := &event.Counter{}
	st := Run(Program{Name: "late", Main: func(m *Thread) {
		for i := 0; i < 4; i++ {
			m.Go(func(w *Thread) {
				for j := 0; j < 1_000_000; j++ {
					w.Write(0x100+uint64(j%64), 1)
				}
			})
		}
	}}, c, Options{Deadline: time.Now().Add(-time.Second)})
	if !st.TimedOut {
		t.Error("run with a passed deadline did not time out")
	}
	if limit := uint64(deadlineEvery * 64); st.Events > limit {
		t.Errorf("%d events delivered past the deadline, want at most %d", st.Events, limit)
	}
}

// TestFarDeadlineChangesNothing checks that a deadline the run never
// reaches leaves its statistics identical to a run without one.
func TestFarDeadlineChangesNothing(t *testing.T) {
	prog := Program{Name: "far", Main: func(m *Thread) {
		mu := m.NewLock()
		var ws []*Thread
		for i := 0; i < 3; i++ {
			ws = append(ws, m.Go(func(w *Thread) {
				a := w.Malloc(64)
				for j := 0; j < 5000; j++ {
					w.WithLock(mu, func() { w.Write(a+uint64(j%8)*8, 8) })
				}
				w.Free(a)
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	}}
	none := Run(prog, event.Nop{}, Options{Seed: 3})
	far := Run(prog, event.Nop{}, Options{Seed: 3, Deadline: time.Now().Add(time.Hour)})
	if far != none {
		t.Errorf("stats with a far deadline %+v, without %+v", far, none)
	}
	if none.Events < deadlineEvery*64 {
		t.Errorf("only %d events: too few decisions to cross a deadline check", none.Events)
	}
}

func TestWithLock(t *testing.T) {
	l := &logSink{}
	Run(Program{Name: "withlock", Main: func(m *Thread) {
		mu := m.NewLock()
		m.WithLock(mu, func() { m.Write(0x7, 1) })
	}}, l, Options{})
	if got := l.String(); got != "acq0:0 w0:7/1 rel0:0" {
		t.Errorf("trace = %q", got)
	}
}

func TestCounterSink(t *testing.T) {
	c := &event.Counter{}
	Run(Program{Name: "count", Main: func(m *Thread) {
		a := m.Malloc(64)
		m.WriteBlock(a, 4, 8)
		m.ReadBlock(a, 8, 4)
		mu := m.NewLock()
		m.Lock(mu)
		m.Unlock(mu)
		m.Free(a)
	}}, c, Options{})
	if c.Writes != 8 || c.Reads != 4 {
		t.Errorf("reads=%d writes=%d", c.Reads, c.Writes)
	}
	if c.WriteBytes != 32 || c.ReadBytes != 32 {
		t.Errorf("bytes r=%d w=%d", c.ReadBytes, c.WriteBytes)
	}
	if c.Acquires != 1 || c.Releases != 1 || c.Mallocs != 1 || c.Frees != 1 {
		t.Errorf("sync counts: %+v", c)
	}
	if c.Accesses() != 12 {
		t.Errorf("accesses = %d", c.Accesses())
	}
	if c.SizeHistogram[4] != 8 || c.SizeHistogram[8] != 4 {
		t.Errorf("histogram = %v", c.SizeHistogram)
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := &event.Counter{}, &event.Counter{}
	Run(Program{Name: "tee", Main: func(m *Thread) {
		m.Write(0x1, 4)
		m.Read(0x1, 4)
	}}, event.Tee{a, b}, Options{})
	if a.Accesses() != 2 || b.Accesses() != 2 {
		t.Errorf("tee delivery: %d / %d", a.Accesses(), b.Accesses())
	}
}

func TestThreadRandDeterministic(t *testing.T) {
	seq := func() []int {
		var out []int
		Run(Program{Name: "rng", Main: func(m *Thread) {
			c := m.Go(func(w *Thread) {
				for i := 0; i < 5; i++ {
					out = append(out, w.Rand().Intn(1000))
				}
			})
			m.Join(c)
		}}, event.Nop{}, Options{Seed: 99})
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("thread RNG must be deterministic per seed")
		}
	}
}
