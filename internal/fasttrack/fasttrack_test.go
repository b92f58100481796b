package fasttrack

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/vc"
)

func TestThreadsStartAtClockOne(t *testing.T) {
	ts := NewThreads()
	if got := ts.Epoch(0); got.Clock() != 1 || got.TID() != 0 {
		t.Errorf("initial epoch = %v", got)
	}
	if got := ts.Clock(3).Get(3); got != 1 {
		t.Errorf("own component = %d, want 1", got)
	}
}

func TestReleaseStartsNewEpoch(t *testing.T) {
	ts := NewThreads()
	e1 := ts.Epoch(0)
	ts.Release(0, 1)
	e2 := ts.Epoch(0)
	if e2.Clock() != e1.Clock()+1 {
		t.Errorf("release did not advance the epoch: %v -> %v", e1, e2)
	}
}

func TestLockTransfersTime(t *testing.T) {
	ts := NewThreads()
	// Thread 0 releases lock 5 at clock 1; thread 1 acquires it.
	ts.Release(0, 5)
	ts.Acquire(1, 5)
	if got := ts.Clock(1).Get(0); got != 1 {
		t.Errorf("thread 1 did not observe thread 0's clock: %d", got)
	}
	// Acquire of an untouched lock is a no-op.
	before := ts.Clock(1).Clone()
	ts.Acquire(1, 99)
	if !ts.Clock(1).Equal(before) {
		t.Error("acquire of a fresh lock must not change the clock")
	}
}

func TestForkJoinOrdering(t *testing.T) {
	ts := NewThreads()
	parentBefore := ts.Epoch(0)
	ts.Fork(0, 1)
	if got := ts.Clock(1).Get(0); got != parentBefore.Clock() {
		t.Errorf("child did not inherit parent time: %d", got)
	}
	if ts.Epoch(0).Clock() != parentBefore.Clock()+1 {
		t.Error("fork must advance the parent's epoch")
	}
	ts.Release(1, 7) // child moves on
	ts.Join(0, 1)
	if got := ts.Clock(0).Get(1); got != ts.Clock(1).Get(1) {
		t.Errorf("join did not absorb child time: %d", got)
	}
}

func TestBarrierAllToAll(t *testing.T) {
	ts := NewThreads()
	const b = event.BarrierID(2)
	for tid := vc.TID(0); tid < 3; tid++ {
		ts.BarrierArrive(tid, b)
	}
	for tid := vc.TID(0); tid < 3; tid++ {
		ts.BarrierDepart(tid, b)
	}
	// After departing, every thread has seen every other thread's
	// pre-barrier clock (which was 1).
	for tid := vc.TID(0); tid < 3; tid++ {
		for other := vc.TID(0); other < 3; other++ {
			if ts.Clock(tid).Get(other) < 1 {
				t.Errorf("thread %d missed thread %d's pre-barrier time", tid, other)
			}
		}
	}
}

func TestEpochsCounter(t *testing.T) {
	ts := NewThreads()
	ts.Epoch(0) // creates thread 0: 1 epoch
	ts.Release(0, 1)
	ts.Release(0, 1)
	if got := ts.Epochs(); got != 3 {
		t.Errorf("epochs = %d, want 3", got)
	}
}

func TestLockClockBytes(t *testing.T) {
	ts := NewThreads()
	if ts.LockClockBytes() != 0 {
		t.Error("no lock clocks yet")
	}
	ts.Release(0, 1)
	ts.BarrierArrive(0, 2)
	if ts.LockClockBytes() <= 0 {
		t.Error("lock/barrier clocks must be accounted")
	}
}

// TestSyncClockIDs runs the lock and barrier ops at ids on both sides of
// the dense-table bound, a synthetic channel lock and a negative id: each
// id must keep clocks of its own, and LockClockBytes must equal a
// recomputation over a map of every id's clocks.
func TestSyncClockIDs(t *testing.T) {
	ids := []event.LockID{0, denseSyncIDs - 1, denseSyncIDs, event.ChanLock(0), -1}
	ts := NewThreads()
	for i, id := range ids {
		pub := vc.TID(i)
		ts.Release(pub, id)                        // lock clock: pub at 1
		ts.ReleaseShared(pub, id)                  // reader clock: pub at 2
		ts.BarrierArrive(pub, event.BarrierID(id)) // barrier clock: pub at 3
	}
	for k, id := range ids {
		obs := vc.TID(len(ids) + k)
		ts.Acquire(obs, id)
		ts.AcquireShared(obs, id)
		ts.BarrierDepart(obs, event.BarrierID(id))
		for i := range ids {
			want := vc.Clock(0)
			if i == k {
				want = 3
			}
			if got := ts.Clock(obs).Get(vc.TID(i)); got != want {
				t.Errorf("observer of id %d sees thread %d at %d, want %d", id, i, got, want)
			}
		}
	}

	clocks := map[string]*vc.VC{}
	for _, id := range ids {
		clocks[fmt.Sprintf("lock %d", id)] = ts.locks.get(id)
		clocks[fmt.Sprintf("readers %d", id)] = ts.readers.get(id)
		clocks[fmt.Sprintf("barrier %d", id)] = ts.barriers.get(event.BarrierID(id))
	}
	distinct := map[*vc.VC]bool{}
	var want int64
	for name, c := range clocks {
		if c == nil {
			t.Fatalf("%s has no clock", name)
		}
		distinct[c] = true
		want += clockBytes(c)
	}
	if len(distinct) != len(clocks) {
		t.Fatalf("%d sync objects share %d clocks", len(clocks), len(distinct))
	}
	if got := ts.LockClockBytes(); got != want {
		t.Fatalf("LockClockBytes = %d, map recomputation %d", got, want)
	}
}

// ---- Read representation ----

func TestReadStartsNone(t *testing.T) {
	var r Read
	if !r.IsNone() || r.Shared() {
		t.Error("zero Read must be none and unshared")
	}
	if r.Bytes() != 0 {
		t.Error("epoch form accounts no extra bytes")
	}
}

func TestReadStaysEpochWhenOrdered(t *testing.T) {
	ts := NewThreads()
	var r Read
	r.Update(0, ts.Epoch(0), ts.Clock(0))
	if r.Shared() {
		t.Fatal("single reader must stay in epoch form")
	}
	// The read is published via a lock release; a second thread that
	// acquires the lock reads happens-after: still epoch form.
	ts.Release(0, 1)
	ts.Acquire(1, 1)
	if inflated := r.Update(1, ts.Epoch(1), ts.Clock(1)); inflated || r.Shared() {
		t.Error("happens-after read must stay in epoch form")
	}
	// Same thread reads again in a later epoch: still ordered.
	ts.Release(1, 2)
	if inflated := r.Update(1, ts.Epoch(1), ts.Clock(1)); inflated || r.Shared() {
		t.Error("ordered re-read must stay in epoch form")
	}
}

func TestReadInflatesOnConcurrentReads(t *testing.T) {
	ts := NewThreads()
	var r Read
	r.Update(0, ts.Epoch(0), ts.Clock(0))
	// Thread 1 never synchronized with thread 0: concurrent reads.
	if inflated := r.Update(1, ts.Epoch(1), ts.Clock(1)); !inflated || !r.Shared() {
		t.Fatal("concurrent reads must inflate to a vector")
	}
	if r.Bytes() <= 0 {
		t.Error("inflated vector must be accounted")
	}
	// Both reads must be remembered.
	v := vc.New(2)
	if r.LEQ(v) {
		t.Error("neither read is ordered before the empty clock")
	}
	v.Set(0, 1)
	v.Set(1, 1)
	if !r.LEQ(v) {
		t.Error("both reads are ordered before <1,1>")
	}
}

func TestReadEqual(t *testing.T) {
	a := Read{E: vc.MakeEpoch(0, 1)}
	b := Read{E: vc.MakeEpoch(0, 1)}
	c := Read{E: vc.MakeEpoch(1, 1)}
	if !a.Equal(&b) || a.Equal(&c) {
		t.Error("epoch-form equality broken")
	}
	d := Read{V: vc.FromSlice(1, 2)}
	e := Read{V: vc.FromSlice(1, 2)}
	if !d.Equal(&e) || d.Equal(&a) {
		t.Error("vector-form equality broken")
	}
}

func TestReadClone(t *testing.T) {
	r := Read{V: vc.FromSlice(1, 2)}
	c := r.Clone()
	c.V.Set(0, 9)
	if r.V.Get(0) != 1 {
		t.Error("clone must be independent")
	}
}

// ---- Race checks ----

func TestCheckWriteWriteRace(t *testing.T) {
	ts := NewThreads()
	w := ts.Epoch(0) // thread 0 wrote at 1@0
	// Thread 1 writes without synchronizing.
	kind, other := CheckWrite(w, nil, ts.Clock(1))
	if kind != WriteWrite || other != 0 {
		t.Errorf("got %v/%d, want write-write/0", kind, other)
	}
	// After synchronizing, no race.
	ts.Release(0, 1)
	ts.Acquire(1, 1)
	if kind, _ := CheckWrite(w, nil, ts.Clock(1)); kind != NoRace {
		t.Errorf("ordered write flagged: %v", kind)
	}
}

func TestCheckReadWriteRace(t *testing.T) {
	ts := NewThreads()
	var r Read
	r.Update(0, ts.Epoch(0), ts.Clock(0))
	kind, other := CheckWrite(vc.EpochNone, &r, ts.Clock(1))
	if kind != ReadWrite || other != 0 {
		t.Errorf("got %v/%d, want read-write/0", kind, other)
	}
}

func TestCheckWriteReadRace(t *testing.T) {
	ts := NewThreads()
	w := ts.Epoch(0)
	kind, other := CheckRead(w, ts.Clock(1))
	if kind != WriteRead || other != 0 {
		t.Errorf("got %v/%d, want write-read/0", kind, other)
	}
	if kind, _ := CheckRead(vc.EpochNone, ts.Clock(1)); kind != NoRace {
		t.Error("never-written location cannot race a read")
	}
}

func TestRaceKindStrings(t *testing.T) {
	for kind, want := range map[RaceKind]string{
		NoRace: "none", WriteWrite: "write-write",
		ReadWrite: "read-write", WriteRead: "write-read",
	} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q", kind, kind.String())
		}
	}
}

// Property: the adaptive Read representation never forgets a read — for any
// sequence of reads, LEQ against a clock agrees with a full set of (tid,
// clock) pairs.
func TestQuickReadRepresentationComplete(t *testing.T) {
	f := func(ops []uint8) bool {
		ts := NewThreads()
		var r Read
		type rd struct {
			tid vc.TID
			c   vc.Clock
		}
		var all []rd
		for _, op := range ops {
			tid := vc.TID(op % 4)
			if op%8 < 2 {
				ts.Release(tid, event.LockID(op%3)) // advance epochs sometimes
				continue
			}
			e := ts.Epoch(tid)
			r.Update(tid, e, ts.Clock(tid))
			all = append(all, rd{tid, e.Clock()})
		}
		// The representation may be coarser (epoch form proves all reads
		// ordered), but must never claim ordering a recorded read violates.
		probe := vc.New(4)
		for i := 0; i < 4; i++ {
			probe.Set(vc.TID(i), 2)
		}
		refLEQ := true
		for _, x := range all {
			if x.c > probe.Get(x.tid) {
				refLEQ = false
			}
		}
		got := r.LEQ(probe)
		if refLEQ && len(all) > 0 && r.Shared() && !got {
			return false // vector form must be exact
		}
		if !refLEQ && got {
			return false // must never forget an unordered read
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
