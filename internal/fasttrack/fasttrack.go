// Package fasttrack implements the FastTrack algorithm core (Flanagan &
// Freund, PLDI 2009) as summarized in Section II.C of the paper: thread and
// lock vector-clock management for the happens-before relation, the packed
// epoch representation of last writes, and the adaptive epoch-or-vector
// representation of reads.
//
// The package is deliberately independent of shadow-memory layout and
// detection granularity: it answers "given this access history and this
// thread's clock, is the next access racy, and what is the new history?".
// internal/detector binds it to locations; internal/dyngran decides how many
// locations share one history.
package fasttrack

import (
	"repro/internal/event"
	"repro/internal/vc"
)

// RaceKind classifies a detected race by the two conflicting accesses.
type RaceKind uint8

const (
	NoRace RaceKind = iota
	WriteWrite
	ReadWrite // earlier read, racing write
	WriteRead // earlier write, racing read
)

func (k RaceKind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case ReadWrite:
		return "read-write"
	case WriteRead:
		return "write-read"
	default:
		return "none"
	}
}

// Threads tracks every thread's vector clock and epoch, and the vector
// clocks of locks and barriers. It implements the clock updates of Section
// II.A/II.B: release joins the thread clock into the lock clock and starts a
// new epoch; acquire joins the lock clock into the thread clock; fork and
// join do the same through the child thread.
type Threads struct {
	clocks   []*vc.VC
	locks    syncClocks[event.LockID]
	readers  syncClocks[event.LockID] // rwlock reader-release clocks
	barriers syncClocks[event.BarrierID]
	epochs   uint64 // total epochs started, for statistics
	pool     *vc.Pool

	// Go-native sync-object clocks (see structured.go).
	chans map[event.ChanID]*chanClock
	wgs   map[event.WGID]*wgClock
}

// SetPool binds every thread/lock/barrier clock created from now on to p,
// so their growth reallocation recycles through the pool. A nil pool (the
// default) keeps plain heap allocation.
func (ts *Threads) SetPool(p *vc.Pool) { ts.pool = p }

// NewThreads returns an empty thread-clock registry.
func NewThreads() *Threads {
	return &Threads{
		chans: make(map[event.ChanID]*chanClock),
		wgs:   make(map[event.WGID]*wgClock),
	}
}

// denseSyncIDs bounds the lock and barrier ids whose clocks live in a
// slice: the simulator hands out small dense ids, so a sync op indexes
// instead of hashing. Every other id (the synthetic channel and WaitGroup
// locks at 1<<30, or any id a wire client sends, negative ones included)
// goes to the map.
const denseSyncIDs = 4096

// syncClocks holds the clocks of one kind of sync object by id.
type syncClocks[K ~int32] struct {
	dense  []*vc.VC // ids in [0, denseSyncIDs)
	sparse map[K]*vc.VC
}

// get returns the clock of id, or nil.
func (s *syncClocks[K]) get(id K) *vc.VC {
	if uint32(id) < denseSyncIDs {
		if int(id) < len(s.dense) {
			return s.dense[id]
		}
		return nil
	}
	return s.sparse[id]
}

// put installs c as the clock of id.
func (s *syncClocks[K]) put(id K, c *vc.VC) {
	if uint32(id) < denseSyncIDs {
		for int(id) >= len(s.dense) {
			s.dense = append(s.dense, nil)
		}
		s.dense[id] = c
		return
	}
	if s.sparse == nil {
		s.sparse = make(map[K]*vc.VC)
	}
	s.sparse[id] = c
}

// bytes returns the accounting size of every clock held.
func (s *syncClocks[K]) bytes() int64 {
	var n int64
	for _, c := range s.dense {
		if c != nil {
			n += clockBytes(c)
		}
	}
	for _, c := range s.sparse {
		n += clockBytes(c)
	}
	return n
}

// ensure returns thread t's clock, creating it at epoch 1 on first sight
// (threads begin in their first epoch with their own component at 1).
func (ts *Threads) ensure(t vc.TID) *vc.VC {
	for int(t) >= len(ts.clocks) {
		ts.clocks = append(ts.clocks, nil)
	}
	if ts.clocks[t] == nil {
		c := ts.pool.Get(int(t) + 1)
		c.Set(t, 1)
		ts.clocks[t] = c
		ts.epochs++
	}
	return ts.clocks[t]
}

// tick starts thread t's next epoch on its clock tc.
func (ts *Threads) tick(t vc.TID, tc *vc.VC) {
	tc.Inc(t)
	ts.epochs++
}

// Clock returns thread t's current vector clock. Callers must not modify
// it: only the sync operations of Threads advance a thread's time.
func (ts *Threads) Clock(t vc.TID) *vc.VC { return ts.ensure(t) }

// Now returns thread t's clock and its current epoch c@t: the access path
// needs both.
func (ts *Threads) Now(t vc.TID) (*vc.VC, vc.Epoch) {
	c := ts.ensure(t)
	return c, vc.MakeEpoch(t, c.Get(t))
}

// Epoch returns thread t's current epoch c@t.
func (ts *Threads) Epoch(t vc.TID) vc.Epoch {
	_, e := ts.Now(t)
	return e
}

// Epochs returns the total number of epochs started across all threads.
func (ts *Threads) Epochs() uint64 { return ts.epochs }

// Acquire applies exclusive lock acquisition (mutex lock or rwlock
// write-lock): the thread observes every prior write release and — for
// rwlocks — every prior read release of l.
func (ts *Threads) Acquire(t vc.TID, l event.LockID) {
	tc := ts.ensure(t)
	if lc := ts.locks.get(l); lc != nil {
		tc.Join(lc)
	}
	if rc := ts.readers.get(l); rc != nil {
		tc.Join(rc)
	}
}

// Release applies lock release: L_l ⊔= T_t, then T_t[t]++ (a release starts
// the thread's next epoch, per DJIT+).
func (ts *Threads) Release(t vc.TID, l event.LockID) {
	tc := ts.ensure(t)
	lc := ts.locks.get(l)
	if lc == nil {
		lc = ts.pool.Get(tc.Len())
		ts.locks.put(l, lc)
	}
	lc.Join(tc)
	ts.tick(t, tc)
}

// AcquireShared applies a rwlock read-lock: the reader observes everything
// published by prior write-releases (T_t ⊔= L_l) but, unlike Acquire, does
// not later need readers to be mutually ordered.
func (ts *Threads) AcquireShared(t vc.TID, l event.LockID) {
	tc := ts.ensure(t)
	if lc := ts.locks.get(l); lc != nil {
		tc.Join(lc)
	}
}

// ReleaseShared applies a rwlock read-unlock: the reader's time joins the
// lock's *reader* clock, which only the next write acquirer absorbs —
// concurrent readers stay unordered with each other, which is what lets a
// rwlock-protected read-mostly structure still exhibit read sharing in the
// FastTrack representation. The release starts the reader's next epoch.
func (ts *Threads) ReleaseShared(t vc.TID, l event.LockID) {
	tc := ts.ensure(t)
	rc := ts.readers.get(l)
	if rc == nil {
		rc = ts.pool.Get(tc.Len())
		ts.readers.put(l, rc)
	}
	rc.Join(tc)
	ts.tick(t, tc)
}

// Fork makes the child inherit the parent's time and advances the parent's
// epoch so later parent events are not ordered before the child's.
func (ts *Threads) Fork(parent, child vc.TID) {
	pc := ts.ensure(parent)
	ts.ensure(child).Join(pc)
	ts.tick(parent, pc)
}

// Join absorbs the finished child's time into the parent. Join does not
// start a new epoch for either side.
func (ts *Threads) Join(parent, child vc.TID) {
	ts.ensure(parent).Join(ts.ensure(child))
}

// BarrierArrive contributes t's time to the barrier clock and starts t's
// next epoch; BarrierDepart (called once all parties arrived) absorbs the
// joined clock, ordering everything before the barrier ahead of everything
// after it.
func (ts *Threads) BarrierArrive(t vc.TID, b event.BarrierID) {
	tc := ts.ensure(t)
	bc := ts.barriers.get(b)
	if bc == nil {
		bc = ts.pool.Get(tc.Len())
		ts.barriers.put(b, bc)
	}
	bc.Join(tc)
	ts.tick(t, tc)
}

// BarrierDepart absorbs the barrier clock into t.
func (ts *Threads) BarrierDepart(t vc.TID, b event.BarrierID) {
	tc := ts.ensure(t)
	if bc := ts.barriers.get(b); bc != nil {
		tc.Join(bc)
	}
}

// LockClockBytes returns the accounting size of all lock and barrier clocks.
func (ts *Threads) LockClockBytes() int64 {
	return ts.locks.bytes() + ts.readers.bytes() + ts.barriers.bytes()
}

// clockBytes is the accounting size of vector clock c: its storage plus a
// 16-byte header.
func clockBytes(c *vc.VC) int64 { return int64(c.Bytes()) + 16 }

// Read is FastTrack's adaptive read representation: a single epoch while
// reads of the location are totally ordered, inflated to a full vector clock
// once concurrent ("read-shared") reads appear. The zero Read means "never
// read".
type Read struct {
	E vc.Epoch // valid while V == nil
	V *vc.VC   // non-nil once read-shared
}

// IsNone reports whether no read has been recorded.
func (r *Read) IsNone() bool { return r.V == nil && r.E.IsNone() }

// Shared reports whether the representation has inflated to a full vector.
func (r *Read) Shared() bool { return r.V != nil }

// LEQ reports whether every recorded read happens before the time v.
func (r *Read) LEQ(v *vc.VC) bool {
	if r.V != nil {
		return r.V.LEQ(v)
	}
	return r.E.LEQ(v)
}

// RacingTID names a thread whose recorded read is not ordered before v.
func (r *Read) RacingTID(v *vc.VC) vc.TID {
	if r.V != nil {
		return r.V.AnyGT(v)
	}
	return r.E.TID()
}

// Equal reports representation equality — the paper's "same vector clock"
// test for read locations (two clocks are the same when they are the same
// size and of equal value; an epoch only equals an epoch).
func (r *Read) Equal(o *Read) bool {
	if (r.V == nil) != (o.V == nil) {
		return false
	}
	if r.V != nil {
		return r.V.Equal(o.V)
	}
	return r.E == o.E
}

// Clone returns an independent copy. A pool-bound inflated vector clones
// copy-on-write through its own pool.
func (r *Read) Clone() Read {
	n := Read{E: r.E}
	if r.V != nil {
		n.V = r.V.Clone()
	}
	return n
}

// CloneIn returns a copy whose inflated vector (if any) shares storage
// copy-on-write and serves its future growth from pool p (nil = heap).
func (r *Read) CloneIn(p *vc.Pool) Read {
	n := Read{E: r.E}
	if r.V != nil {
		n.V = r.V.CloneIn(p)
	}
	return n
}

// Release returns the inflated vector (if any) to its pool and resets the
// representation to "never read". Safe on the zero Read.
func (r *Read) Release() {
	if r.V != nil {
		r.V.Release()
		r.V = nil
	}
	r.E = vc.EpochNone
}

// Bytes returns the accounting size of the representation beyond its
// embedding struct (the inflated vector, if any).
func (r *Read) Bytes() int {
	if r.V == nil {
		return 0
	}
	return r.V.Bytes() + 16
}

// Update records a read at epoch e of thread clock tc: while the previous
// read happens-before this one the epoch form suffices; otherwise the
// representation inflates to a vector clock. It reports whether the
// representation changed from epoch to vector (for accounting).
func (r *Read) Update(t vc.TID, e vc.Epoch, tc *vc.VC) (inflated bool) {
	return r.UpdateIn(nil, t, e, tc)
}

// UpdateIn is Update with the inflation vector (when one is created) served
// by pool p; a nil pool falls back to plain heap allocation.
func (r *Read) UpdateIn(p *vc.Pool, t vc.TID, e vc.Epoch, tc *vc.VC) (inflated bool) {
	if r.V != nil {
		r.V.Set(t, e.Clock())
		return false
	}
	if r.E.IsNone() || r.E.LEQ(tc) || r.E.TID() == t {
		r.E = e
		return false
	}
	// Concurrent reads: inflate to a full vector holding both.
	v := p.Get(int(t) + 1)
	v.Set(r.E.TID(), r.E.Clock())
	v.Set(t, e.Clock())
	r.V = v
	r.E = vc.EpochNone
	return true
}

// CheckWrite applies FastTrack's write checks against a location's write
// epoch w and read representation r, for a thread with clock tc. It returns
// the race found (NoRace if none) and the id of the other thread involved.
func CheckWrite(w vc.Epoch, r *Read, tc *vc.VC) (RaceKind, vc.TID) {
	if !w.LEQ(tc) {
		return WriteWrite, w.TID()
	}
	if r != nil && !r.LEQ(tc) {
		return ReadWrite, r.RacingTID(tc)
	}
	return NoRace, vc.NoTID
}

// CheckRead applies FastTrack's read check: a read races with the last
// write unless that write happens before the reader.
func CheckRead(w vc.Epoch, tc *vc.VC) (RaceKind, vc.TID) {
	if !w.LEQ(tc) {
		return WriteRead, w.TID()
	}
	return NoRace, vc.NoTID
}
