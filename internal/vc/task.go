package vc

// This file implements the structure-aware compact clock layer: when the
// observed synchronization graph is series–parallel (fork/join, channel
// handoff, WaitGroup barriers), a thread's vector clock is representable as
//
//	self clock  +  small overlay  +  immutable snapshot chain
//
// instead of a dense O(threads) array. A Task is the mutable clock of one
// live thread; a Snap is an immutable, reference-counted snapshot taken at
// each publishing sync operation (channel send/recv, WaitGroup.Done, fork).
//
// Two structural moves keep the representation near-constant-size per
// thread on structured programs:
//
//   - Delta chaining: a publication snapshot bases on the thread's own
//     previous snapshot and carries only the overlay entries that changed
//     since, so a hub thread that absorbs from many peers publishes O(1)
//     bytes per operation instead of re-copying an O(threads) overlay. A
//     publication nobody has consumed yet (refcount 1) is merged in place
//     rather than chained, so unconsumed publication history never piles up.
//
//   - Base swapping: absorbing a newer snapshot of the same thread the
//     clock's base chain already starts at replaces the base wholesale —
//     pointwise dominance of a later snapshot over an earlier one of the
//     same thread makes the swap exact — so a spoke thread's overlay stays
//     empty no matter how much hub knowledge flows through it.
//
// Soundness rests on one discipline, enforced by the callers in
// internal/fasttrack: every publication snapshots the clock and then
// increments the owner's self component. Publication points (tid, self) are
// therefore unique and monotone, which justifies the dominance prune in
// Absorb/SnapJoinInto: if the absorbing clock knew tid at ≥ self *before
// the walk started*, it has transitively absorbed everything the snapshot
// carries. With delta chains the pre-walk qualifier matters: a level set
// earlier in the same walk no longer summarizes its own chain, so walks
// record the first-seen ("pre") value of every component they touch and
// prune against those.
//
// The layer is verdict-preserving: a Task's Get is pointwise equal to the
// general *VC the same operation sequence would produce, so detectors
// comparing through the View interface report byte-identical races.

// pair is one overlay component (thread t observed at clock c).
type pair struct {
	t TID
	c Clock
}

// Accounting sizes, in the spirit of VC.Bytes: struct headers plus backing
// arrays. These feed the compact-vs-general byte gauges.
const (
	snapHdrBytes = 48
	taskHdrBytes = 88
	pairBytes    = 8
)

// Snap is an immutable snapshot of a thread clock at a publication point.
// Its logical value is self@tid joined with over joined with the base
// chain; lookups are first-found-wins walking outward-in, which is exact
// because overlays are maintained at their maximum (set only when strictly
// greater than everything deeper).
type Snap struct {
	base *Snap
	over []pair
	tid  TID
	self Clock
	refs int32
}

// Get returns the snapshot's component for thread t.
func (s *Snap) Get(t TID) Clock {
	for ; s != nil; s = s.base {
		if t == s.tid {
			return s.self
		}
		for _, p := range s.over {
			if p.t == t {
				return p.c
			}
		}
	}
	return 0
}

// Task is the mutable compact clock of one live structured thread. It
// implements View, so FastTrack's epoch comparisons read it directly.
type Task struct {
	arena *Arena
	base  *Snap
	// last is the thread's own previous publication, the base of the next
	// delta-chained snapshot.
	last *Snap
	// final caches the terminal snapshot handed to joiners (Join does not
	// start a new epoch, so all joiners see the same publication).
	final *Snap
	over  []pair
	tid   TID
	self  Clock
	// dirtyFrom marks the overlay suffix changed since the last
	// publication — the delta the next chained snapshot carries. Updates
	// to entries before the mark move them into the suffix.
	dirtyFrom int32
	// baseChanged notes a base swap since the last publication; the next
	// snapshot must then re-base on the new chain with the full overlay.
	baseChanged bool
	// cache holds the last two Get results for the access path, consulted
	// before the overlay scan and the chain walk. Chain folds and in-place
	// merges are value-preserving, so only the mutations that can change a
	// resolved component — an overlay set or a base swap — invalidate it.
	// Zero-clock results are not cached (c == 0 marks an empty slot).
	cache [2]pair
	// floor remembers, per thread id slot, a value a component has
	// reached. Components only grow — a base swap installs a dominating
	// snapshot, overlay entries are only raised — so a floor stays a lower
	// bound for the task's lifetime and, unlike the Get cache, survives
	// base swaps. covers answers from it when it can.
	floor [floorSlots]pair
}

// floorSlots is the size of Task's direct-mapped floor table.
const floorSlots = 8

// TID returns the owning thread id.
func (k *Task) TID() TID { return k.tid }

// Self returns the thread's own clock component (its current epoch).
func (k *Task) Self() Clock { return k.self }

// Get returns component t: self for the owner, else the overlay, else the
// snapshot chain. First match wins (overlays dominate deeper history).
func (k *Task) Get(t TID) Clock {
	if t == k.tid {
		return k.self
	}
	if k.cache[0].t == t && k.cache[0].c != 0 {
		return k.cache[0].c
	}
	if k.cache[1].t == t && k.cache[1].c != 0 {
		return k.cache[1].c
	}
	c := k.lookup(t)
	if c != 0 {
		k.cache[1] = k.cache[0]
		k.cache[0] = pair{t, c}
	}
	return c
}

// covers reports whether component t is at least c (Epoch.LEQ's question)
// without walking the snapshot chain when an earlier lookup already saw
// t at c or beyond.
func (k *Task) covers(t TID, c Clock) bool {
	if t == k.tid {
		return c <= k.self
	}
	f := &k.floor[uint32(t)%floorSlots]
	if f.t == t && c <= f.c {
		return true
	}
	v := k.Get(t)
	if v != 0 {
		*f = pair{t, v}
	}
	return c <= v
}

// lookup resolves component t through the overlay and the snapshot chain,
// bypassing the cache (the walk behind Get, and the pre-value reads during
// absorbs, which must not pollute the cache mid-mutation).
func (k *Task) lookup(t TID) Clock {
	for _, p := range k.over {
		if p.t == t {
			return p.c
		}
	}
	return k.base.Get(t)
}

// set raises component t to c in the overlay and marks it dirty. Callers
// guarantee c exceeds the current value, keeping overlays at their maximum —
// so a cached Get result for t is refreshed in place rather than dropped.
func (k *Task) set(t TID, c Clock) {
	if k.cache[0].t == t && k.cache[0].c != 0 {
		k.cache[0].c = c
	}
	if k.cache[1].t == t && k.cache[1].c != 0 {
		k.cache[1].c = c
	}
	for i := range k.over {
		if k.over[i].t == t {
			if int32(i) >= k.dirtyFrom {
				k.over[i].c = c
				return
			}
			// Move a clean entry into the dirty suffix.
			copy(k.over[i:], k.over[i+1:])
			k.over[len(k.over)-1] = pair{t, c}
			k.dirtyFrom--
			return
		}
	}
	old := cap(k.over)
	k.over = append(k.over, pair{t, c})
	if n := cap(k.over); n != old {
		k.arena.account(pairBytes * int64(n-old))
	}
}

// Publish snapshots the clock for a release-style operation (channel send
// or receive publication, WaitGroup.Done, fork) and advances the owner to a
// new epoch. The caller owns the returned reference.
func (k *Task) Publish() *Snap {
	s := k.snapshot(true)
	k.self++
	k.dropFinal()
	return s
}

// Final returns the terminal snapshot a joiner absorbs. Join does not open
// a new epoch (matching the general path, which joins without increment),
// and the thread is past its last publication, so the snapshot is cached
// and shared by every joiner. The caller owns the returned reference.
func (k *Task) Final() *Snap {
	if k.final == nil {
		k.final = k.snapshot(false)
	}
	k.final.refs++
	return k.final
}

// snapshot captures the task's current value. When update is set the
// snapshot becomes the thread's publication point: it replaces last and
// resets the delta window. A read-only snapshot (Final) leaves both alone.
func (k *Task) snapshot(update bool) *Snap {
	delta := k.last != nil && !k.baseChanged
	if update && delta && k.last.refs == 1 {
		// Nobody consumed the previous publication: fold the delta into it
		// in place instead of growing the chain.
		s := k.last
		s.self = k.self
		for _, p := range k.over[k.dirtyFrom:] {
			k.arena.snapSet(s, p)
		}
		k.dirtyFrom = int32(len(k.over))
		s.refs++
		k.arena.compactChain(s)
		return s
	}
	s := k.arena.getSnap()
	if delta {
		s.base = k.last
		s.over = append(s.over[:0], k.over[k.dirtyFrom:]...)
	} else {
		s.base = k.base
		s.over = append(s.over[:0], k.over...)
	}
	if s.base != nil {
		s.base.refs++
	}
	s.tid = k.tid
	s.self = k.self
	s.refs = 1
	k.arena.account(snapHdrBytes + pairBytes*int64(cap(s.over)))
	if update {
		if k.last != nil {
			k.arena.Release(k.last)
		}
		k.last = s
		s.refs++
		k.dirtyFrom = int32(len(k.over))
		k.baseChanged = false
		k.arena.compactChain(s)
	}
	return s
}

func (k *Task) dropFinal() {
	if k.final != nil {
		k.arena.Release(k.final)
		k.final = nil
	}
}

// Absorb joins snapshot s into the clock (the acquire side of a sync edge).
// A snapshot that covers the current base's publication point — it carries
// base.tid at ≥ base.self, so by publication transitivity it has absorbed
// everything the base carries — swaps in as the new base wholesale, and the
// overlay stays near-empty on handoff patterns no matter how much hub
// knowledge flows through: this is what keeps spoke threads O(1) even when
// every publication they absorb carries global fan-in knowledge.
// Everything else flattens through a pre-value-pruned chain walk, O(new
// publications) amortized. s's reference is not consumed.
func (k *Task) Absorb(s *Snap) {
	k.dropFinal()
	if b := k.base; b != nil {
		if s.tid == b.tid {
			if s.self <= b.self {
				return // base already dominates s
			}
			k.swapBase(s)
			return
		}
		if s.Get(b.tid) >= b.self {
			k.swapBase(s)
			return
		}
	}
	k.absorbWalk(s)
}

// swapBase replaces the base with s, a later snapshot of the same thread
// (pointwise dominant, since thread clocks are monotone). Overlay entries
// the new base covers are dropped to keep the overlay at its maximum.
func (k *Task) swapBase(s *Snap) {
	s.refs++
	old := k.base
	k.base = s
	out := k.over[:0]
	for _, p := range k.over {
		if s.Get(p.t) < p.c {
			out = append(out, p)
		}
	}
	for i := len(out); i < len(k.over); i++ {
		k.over[i] = pair{}
	}
	k.over = out
	k.dirtyFrom = 0
	k.baseChanged = true
	k.cache = [2]pair{}
	k.arena.Release(old)
}

// absorbWalk flattens s's chain into the overlay, pruning against
// pre-walk component values (see the package comment).
func (k *Task) absorbWalk(s *Snap) {
	a := k.arena
	a.preReset()
	for ; s != nil; s = s.base {
		cur := k.Get(s.tid)
		if a.preOf(s.tid, cur) >= s.self {
			return
		}
		if cur < s.self {
			k.set(s.tid, s.self)
		}
		for _, p := range s.over {
			c := k.Get(p.t)
			a.preOf(p.t, c)
			if c < p.c {
				k.set(p.t, p.c)
			}
		}
	}
}

// MaterializeInto joins the task's full value into v (used at demotion,
// when the thread falls back to a general clock). Unlike Absorb this walks
// the entire chain without pruning: v is being built and cannot vouch for
// having absorbed anything.
func (k *Task) MaterializeInto(v *VC) {
	if v.Get(k.tid) < k.self {
		v.Set(k.tid, k.self)
	}
	joinPairs(v, k.over)
	for s := k.base; s != nil; s = s.base {
		if v.Get(s.tid) < s.self {
			v.Set(s.tid, s.self)
		}
		joinPairs(v, s.over)
	}
}

// Bytes returns the accounting size of the task's own storage (the shared
// snapshot chain is accounted by the arena).
func (k *Task) Bytes() int64 { return taskHdrBytes + pairBytes*int64(cap(k.over)) }

// SnapJoinInto joins snapshot s into the complete clock v, with the same
// pre-value-pruned walk as Task.Absorb: v must be a full clock satisfying
// the invariant that knowing tid at ≥ self implies having absorbed that
// publication (true for any demoted thread's or lock's live clock, not for
// a clock under construction — use MaterializeInto there). The arena only
// lends walk scratch; s stays owned by its holder.
func SnapJoinInto(a *Arena, s *Snap, v *VC) {
	a.preReset()
	for ; s != nil; s = s.base {
		cur := v.Get(s.tid)
		if a.preOf(s.tid, cur) >= s.self {
			return
		}
		if cur < s.self {
			v.Set(s.tid, s.self)
		}
		for _, p := range s.over {
			c := v.Get(p.t)
			a.preOf(p.t, c)
			if c < p.c {
				v.Set(p.t, p.c)
			}
		}
	}
}

func joinPairs(v *VC, over []pair) {
	for _, p := range over {
		if v.Get(p.t) < p.c {
			v.Set(p.t, p.c)
		}
	}
}

// Arena owns the compact-clock storage for one detector: freelists for
// snapshots and tasks, walk scratch, and exact live/peak byte accounting.
// It is single-owner (one detector goroutine), so reference counts are
// plain integers — no atomics on the hot path.
type Arena struct {
	freeSnaps []*Snap
	freeTasks []*Task
	// pre-walk component values recorded during one Absorb/SnapJoinInto
	// (transient scratch, reused across walks).
	preT []TID
	preC []Clock
	// chain walk scratch for compactChain.
	chainBuf []*Snap
	live     int64
	peak     int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// LiveBytes returns the bytes of compact clock state currently alive.
func (a *Arena) LiveBytes() int64 { return a.live }

// PeakBytes returns the high-water mark of LiveBytes.
func (a *Arena) PeakBytes() int64 { return a.peak }

func (a *Arena) account(d int64) {
	a.live += d
	if a.live > a.peak {
		a.peak = a.live
	}
}

// preReset clears the walk scratch.
func (a *Arena) preReset() {
	a.preT = a.preT[:0]
	a.preC = a.preC[:0]
}

// preOf returns component t's value as of the start of the current walk,
// recording cur as that value on first sight.
func (a *Arena) preOf(t TID, cur Clock) Clock {
	for i, pt := range a.preT {
		if pt == t {
			return a.preC[i]
		}
	}
	a.preT = append(a.preT, t)
	a.preC = append(a.preC, cur)
	return cur
}

// compactChain coalesces every maximal dead run — consecutive nodes whose
// only remaining reference is their successor — into the run's topmost
// member, freeing the rest. The fold is value-preserving: the successor's
// lookup already resolved through the folded node first-found-wins, so
// moving its entries into the successor's overlay (skipping components the
// successor covers) and splicing its base up changes no Get result.
// Without it, a delta chain would stay alive end to end: every node holds
// its base, and the head is always held by its task.
//
// Folds deliberately never target an externally-pinned node. A pin is
// shared by every queue entry and spoke base that holds it; accumulating
// the dead deltas below each pin into the pin itself would give every
// long-lived pin its own copy of the union — densifying each one toward a
// full O(threads) vector, exactly the blow-up the delta chain exists to
// avoid. Coalescing dead-into-dead instead keeps at most one small
// accumulator node per run: pins stay one delta wide, and an unpinned
// history (a spoke publishing above a long-held fork snapshot) still
// collapses to a single node.
func (a *Arena) compactChain(head *Snap) {
	buf := a.chainBuf[:0]
	for s := head; s != nil; s = s.base {
		buf = append(buf, s)
	}
	for i := len(buf) - 1; i > 0; i-- {
		b := buf[i]
		s := buf[i-1]
		if b.refs != 1 || s.refs != 1 {
			continue
		}
		if b.tid != s.tid && s.overLacks(b.tid) {
			a.snapAppend(s, pair{b.tid, b.self})
		}
		for _, p := range b.over {
			if p.t != s.tid && s.overLacks(p.t) {
				a.snapAppend(s, p)
			}
		}
		s.base = b.base // b's reference on its base transfers to s
		b.refs = 0
		b.base = nil
		a.account(-(snapHdrBytes + pairBytes*int64(cap(b.over))))
		b.over = b.over[:0]
		a.freeSnaps = append(a.freeSnaps, b)
	}
	a.chainBuf = buf[:0]
}

// overLacks reports whether s's overlay has no entry for t.
func (s *Snap) overLacks(t TID) bool {
	for _, p := range s.over {
		if p.t == t {
			return false
		}
	}
	return true
}

// snapAppend adds a new overlay entry to s (caller guarantees absence).
func (a *Arena) snapAppend(s *Snap, p pair) {
	old := cap(s.over)
	s.over = append(s.over, p)
	if n := cap(s.over); n != old {
		a.account(pairBytes * int64(n-old))
	}
}

// snapSet raises component p.t to p.c in s's overlay (in-place publication
// merge; s must be exclusively held).
func (a *Arena) snapSet(s *Snap, p pair) {
	for i := range s.over {
		if s.over[i].t == p.t {
			s.over[i].c = p.c
			return
		}
	}
	old := cap(s.over)
	s.over = append(s.over, p)
	if n := cap(s.over); n != old {
		a.account(pairBytes * int64(n-old))
	}
}

// smallOverCap bounds the overlay capacity a recycled snapshot may keep.
// Bottom accumulator nodes retire with near-dense overlays; letting their
// backing arrays ride the freelist would silently inflate every later
// one-pair delta to that capacity.
const smallOverCap = 8

func (a *Arena) getSnap() *Snap {
	if n := len(a.freeSnaps); n > 0 {
		s := a.freeSnaps[n-1]
		a.freeSnaps = a.freeSnaps[:n-1]
		if cap(s.over) > smallOverCap {
			s.over = nil
		}
		return s
	}
	return &Snap{}
}

// Retain adds a reference to s (nil-safe).
func (a *Arena) Retain(s *Snap) {
	if s != nil {
		s.refs++
	}
}

// Release drops a reference to s, recycling it (and iteratively any base it
// was the last holder of) into the freelist.
func (a *Arena) Release(s *Snap) {
	for s != nil {
		s.refs--
		if s.refs > 0 {
			return
		}
		base := s.base
		a.account(-(snapHdrBytes + pairBytes*int64(cap(s.over))))
		s.base = nil
		s.over = s.over[:0]
		a.freeSnaps = append(a.freeSnaps, s)
		s = base
	}
}

// NewTask creates the compact clock for thread t starting at epoch 1 (the
// same initial value ensure gives a general clock). base is the parent's
// fork snapshot, or nil for a root thread; its reference is transferred to
// the task.
func (a *Arena) NewTask(t TID, base *Snap) *Task {
	var k *Task
	if n := len(a.freeTasks); n > 0 {
		k = a.freeTasks[n-1]
		a.freeTasks = a.freeTasks[:n-1]
	} else {
		k = &Task{}
	}
	k.arena = a
	k.base = base
	k.last = nil
	k.final = nil
	k.over = k.over[:0]
	k.tid = t
	k.self = 1
	k.dirtyFrom = 0
	k.baseChanged = false
	k.cache = [2]pair{}
	k.floor = [floorSlots]pair{}
	a.account(taskHdrBytes + pairBytes*int64(cap(k.over)))
	return k
}

// FreeTask releases the task's references and recycles it (demotion, or
// detector teardown).
func (a *Arena) FreeTask(k *Task) {
	a.Release(k.base)
	k.base = nil
	if k.last != nil {
		a.Release(k.last)
		k.last = nil
	}
	k.dropFinal()
	a.account(-(taskHdrBytes + pairBytes*int64(cap(k.over))))
	k.over = k.over[:0]
	a.freeTasks = append(a.freeTasks, k)
}
