// Structure-aware clock mode: when the analyzed program synchronizes
// through series–parallel constructs (fork/join, channel handoff,
// WaitGroup), thread clocks are kept as compact vc.Task encodings with O(1)
// publication and dominance-pruned absorption. A thread falls back
// ("demotes") to a general pooled vector clock on its first unstructured
// edge — mutex, rwlock, barrier, or absorbing time from an already-demoted
// peer. Demotion is one-way, per-thread, and verdict-preserving: a Task's
// Get is pointwise equal to the general clock the same operation sequence
// builds, and both modes advance epochs at exactly the same operations, so
// detectors comparing through vc.View report byte-identical races.
//
// This file also carries the Go-native synchronization semantics (channel
// send/recv/ack, WaitGroup Done/Wait) for *both* clock modes, since the
// per-object clock bookkeeping is identical — only the representation of
// published and absorbed times differs.
package fasttrack

import (
	"repro/internal/event"
	"repro/internal/vc"
)

// ClockMode selects the thread-clock representation.
type ClockMode uint8

const (
	// ClockGeneral uses pooled vector clocks for every thread (default).
	ClockGeneral ClockMode = iota
	// ClockCompact uses task-tree compact clocks with per-thread demotion.
	ClockCompact
)

func (m ClockMode) String() string {
	switch m {
	case ClockCompact:
		return "compact"
	default:
		return "general"
	}
}

// DemoteReason says which unstructured edge demoted a thread.
type DemoteReason uint8

const (
	// DemoteLock: the thread used a mutex.
	DemoteLock DemoteReason = iota
	// DemoteRWLock: the thread used a reader-writer lock.
	DemoteRWLock
	// DemoteBarrier: the thread used a barrier.
	DemoteBarrier
	// DemotePeer: the thread absorbed time from an already-demoted peer
	// (general-representation publication, or joining a demoted child).
	DemotePeer
)

// NumDemoteReasons is the number of distinct demotion reasons.
const NumDemoteReasons = 4

func (r DemoteReason) String() string {
	switch r {
	case DemoteLock:
		return "lock"
	case DemoteRWLock:
		return "rwlock"
	case DemoteBarrier:
		return "barrier"
	case DemotePeer:
		return "peer"
	default:
		return "?"
	}
}

// clockVal is one published time: a compact snapshot from a structured
// publisher, or a cloned vector clock from a demoted one.
type clockVal struct {
	s   *vc.Snap
	v   *vc.VC
	tid vc.TID
}

// bytes is the publication's share of GeneralClockBytes: a vector clock
// counts its storage, a compact snapshot is accounted by the arena.
func (cv clockVal) bytes() int64 {
	if cv.v == nil {
		return 0
	}
	return clockBytes(cv.v)
}

// fifo is a head-compacting queue of published times. Popping advances a
// head index instead of re-slicing, so the backing array is reused and the
// steady state allocates nothing.
type fifo struct {
	vals []clockVal
	head int
}

func (f *fifo) push(cv clockVal) {
	if f.head == len(f.vals) {
		f.vals = f.vals[:0]
		f.head = 0
	}
	f.vals = append(f.vals, cv)
}

func (f *fifo) pop() (clockVal, bool) {
	if f.head >= len(f.vals) {
		return clockVal{}, false
	}
	cv := f.vals[f.head]
	f.vals[f.head] = clockVal{}
	f.head++
	return cv, true
}

// chanClock is the per-channel clock state realizing the Go memory model's
// channel edges. sendq holds publications awaiting their matching receive
// (send k happens before receive k); recvq holds receiver publications
// awaiting the slot-reuse back edge (receive k happens before send k+C for
// capacity C; for C == 0 the ChanAck event pops it instead). Both queues
// are bounded: sendq by the queued elements plus blocked senders, recvq by
// the capacity (receives cannot outrun sends).
type chanClock struct {
	capacity     int
	sends, recvs uint64
	sendq        fifo
	recvq        fifo
}

// wgClock keeps, per WaitGroup, the latest Done publication of each owner
// thread; Wait absorbs them all. Replacing per owner is sound because a
// later publication of the same thread dominates its earlier ones, and the
// engine emits Wait immediately after the Done that releases it, so no
// later-round Done can slip in front.
type wgClock struct {
	done []clockVal
}

// SetClockMode selects the thread-clock representation. Must be called
// before the first event.
func (ts *Threads) SetClockMode(m ClockMode) {
	ts.mode = m
	if m == ClockCompact && ts.arena == nil {
		ts.arena = vc.NewArena()
	}
}

// Mode returns the active clock mode.
func (ts *Threads) Mode() ClockMode { return ts.mode }

// growTask extends the per-thread task/demotion tables to cover t.
func (ts *Threads) growTask(t vc.TID) {
	for int(t) >= len(ts.tasks) {
		ts.tasks = append(ts.tasks, nil)
		ts.demoted = append(ts.demoted, false)
		ts.retired = append(ts.retired, false)
	}
}

// task returns thread t's compact clock, creating it on first sight (the
// compact analogue of ensure, starting at epoch 1). It returns nil in
// general mode and for demoted threads.
func (ts *Threads) task(t vc.TID) *vc.Task {
	if ts.mode != ClockCompact {
		return nil
	}
	ts.growTask(t)
	if ts.tasks[t] == nil && !ts.demoted[t] && !ts.retired[t] {
		ts.tasks[t] = ts.arena.NewTask(t, nil)
		ts.epochs++
	}
	return ts.tasks[t]
}

// freshThread reports whether t has no clock state yet in any
// representation (so a fork can hand it a snapshot base directly).
func (ts *Threads) freshThread(t vc.TID) bool {
	if int(t) < len(ts.tasks) && ts.tasks[t] != nil {
		return false
	}
	if int(t) < len(ts.demoted) && (ts.demoted[t] || ts.retired[t]) {
		return false
	}
	return int(t) >= len(ts.clocks) || ts.clocks[t] == nil
}

// View returns thread t's clock for happens-before comparisons: the
// compact task while structured, the general vector clock otherwise.
func (ts *Threads) View(t vc.TID) vc.View {
	v, _ := ts.Now(t)
	return v
}

// Now returns thread t's clock (as View does) and its current epoch c@t,
// resolving the thread's representation once: the access path needs both.
func (ts *Threads) Now(t vc.TID) (vc.View, vc.Epoch) {
	if k := ts.task(t); k != nil {
		return k, vc.MakeEpoch(t, k.Self())
	}
	c := ts.ensure(t)
	return c, vc.MakeEpoch(t, c.Get(t))
}

// demote moves thread t from the compact to the general representation
// (one-way) and returns its general clock. In general mode, and for
// already-demoted threads, it is just ensure.
func (ts *Threads) demote(t vc.TID, r DemoteReason) *vc.VC {
	k := ts.task(t)
	if k == nil {
		tc := ts.ensure(t)
		ts.noteGeneralPeak()
		return tc
	}
	for int(t) >= len(ts.clocks) {
		ts.clocks = append(ts.clocks, nil)
	}
	cvc := ts.clocks[t]
	if cvc == nil {
		// The thread's first epoch was counted when the task was created,
		// so build the clock directly rather than through ensure.
		cvc = ts.pool.Get(int(t) + 1)
		ts.clocks[t] = cvc
		ts.general += clockBytes(cvc)
	}
	before := cvc.Bytes()
	k.MaterializeInto(cvc)
	ts.resized(cvc, before)
	ts.arena.FreeTask(k)
	ts.tasks[t] = nil
	ts.demoted[t] = true
	ts.demotions[r]++
	if ts.OnDemote != nil {
		ts.OnDemote(r)
	}
	ts.noteGeneralPeak()
	return cvc
}

// publishVal snapshots t's time for a release-style edge and advances t to
// a new epoch, in whichever representation t currently uses.
func (ts *Threads) publishVal(t vc.TID) clockVal {
	if k := ts.task(t); k != nil {
		s := k.Publish()
		ts.epochs++
		return clockVal{s: s, tid: t}
	}
	tc := ts.ensure(t)
	cv := clockVal{v: tc.CloneIn(ts.pool), tid: t}
	ts.tick(t, tc)
	ts.noteGeneralPeak()
	return cv
}

// absorbVal joins a published time into t's clock (the acquire side).
// A structured thread absorbing a general publication demotes first: its
// peer has left the series–parallel regime.
func (ts *Threads) absorbVal(t vc.TID, cv clockVal) {
	if k := ts.task(t); k != nil {
		if cv.s != nil {
			k.Absorb(cv.s)
			return
		}
		ts.join(ts.demote(t, DemotePeer), cv.v)
		return
	}
	tc := ts.ensure(t)
	if cv.s != nil {
		ts.snapJoin(tc, cv.s)
		ts.noteGeneralPeak()
		return
	}
	ts.join(tc, cv.v)
	ts.noteGeneralPeak()
}

// snapJoin joins compact snapshot s into general thread clock tc.
func (ts *Threads) snapJoin(tc *vc.VC, s *vc.Snap) {
	before := tc.Bytes()
	vc.SnapJoinInto(ts.arena, s, tc)
	ts.resized(tc, before)
}

// enqueue queues a publication, counting it in GeneralClockBytes.
func (ts *Threads) enqueue(q *fifo, cv clockVal) {
	q.push(cv)
	ts.general += cv.bytes()
}

// dequeue pops the oldest publication, which stops counting in
// GeneralClockBytes.
func (ts *Threads) dequeue(q *fifo) (clockVal, bool) {
	cv, ok := q.pop()
	ts.general -= cv.bytes()
	return cv, ok
}

// releaseVal returns a popped publication's storage to its arena or pool.
func (ts *Threads) releaseVal(cv clockVal) {
	if cv.s != nil {
		ts.arena.Release(cv.s)
	} else if cv.v != nil {
		cv.v.Release()
	}
}

// chanFor returns the clock state of channel ch, creating it on first use
// (channel creation itself is not an event; the capacity rides on each op).
func (ts *Threads) chanFor(ch event.ChanID, capacity int) *chanClock {
	c := ts.chans[ch]
	if c == nil {
		c = &chanClock{capacity: capacity}
		ts.chans[ch] = c
	}
	return c
}

// ChanSend applies the k-th send on ch: absorb the slot-reuse back edge
// (receive k−C happens before send k, for buffered channels past their
// capacity), then publish for the matching receive.
func (ts *Threads) ChanSend(t vc.TID, ch event.ChanID, capacity int) {
	c := ts.chanFor(ch, capacity)
	c.sends++
	if c.capacity > 0 && c.sends > uint64(c.capacity) {
		if cv, ok := ts.dequeue(&c.recvq); ok {
			ts.absorbVal(t, cv)
			ts.releaseVal(cv)
		}
	}
	ts.enqueue(&c.sendq, ts.publishVal(t))
}

// ChanRecv applies the k-th receive on ch: absorb the k-th send's
// publication, then publish for the back edge (slot reuse or ack).
func (ts *Threads) ChanRecv(t vc.TID, ch event.ChanID, capacity int) {
	c := ts.chanFor(ch, capacity)
	c.recvs++
	if cv, ok := ts.dequeue(&c.sendq); ok {
		ts.absorbVal(t, cv)
		ts.releaseVal(cv)
	}
	ts.enqueue(&c.recvq, ts.publishVal(t))
}

// ChanAck applies the unbuffered rendezvous back edge: the sender absorbs
// the matching receiver's publication. No new epoch (it is an acquire).
func (ts *Threads) ChanAck(t vc.TID, ch event.ChanID, capacity int) {
	c := ts.chanFor(ch, capacity)
	if cv, ok := ts.dequeue(&c.recvq); ok {
		ts.absorbVal(t, cv)
		ts.releaseVal(cv)
	}
}

// wgFor returns the clock state of WaitGroup wg.
func (ts *Threads) wgFor(wg event.WGID) *wgClock {
	w := ts.wgs[wg]
	if w == nil {
		w = &wgClock{}
		ts.wgs[wg] = w
	}
	return w
}

// WGDone publishes t's time into the group, replacing t's previous
// publication (dominated by the new one).
func (ts *Threads) WGDone(t vc.TID, wg event.WGID) {
	w := ts.wgFor(wg)
	cv := ts.publishVal(t)
	ts.general += cv.bytes()
	for i := range w.done {
		if w.done[i].tid == t {
			ts.general -= w.done[i].bytes()
			ts.releaseVal(w.done[i])
			w.done[i] = cv
			return
		}
	}
	w.done = append(w.done, cv)
}

// WGWait absorbs every Done publication of the group. Entries persist (a
// group may be reused for further rounds); the absorb side is dominance-
// pruned, so repeated waits over unchanged entries are O(1) each.
func (ts *Threads) WGWait(t vc.TID, wg event.WGID) {
	w := ts.wgFor(wg)
	for _, cv := range w.done {
		ts.absorbVal(t, cv)
	}
}

// StructuredThreads returns how many threads use (or, for joined-and-
// retired threads, finished their run on) the compact representation.
func (ts *Threads) StructuredThreads() int {
	n := ts.retiredTasks
	for _, k := range ts.tasks {
		if k != nil {
			n++
		}
	}
	return n
}

// Demotions returns the total number of demotions and the per-reason
// breakdown.
func (ts *Threads) Demotions() (total uint64, byReason [NumDemoteReasons]uint64) {
	for _, n := range ts.demotions {
		total += n
	}
	return total, ts.demotions
}

// CompactClockBytes returns the live and peak bytes of compact clock state
// (tasks, snapshots, and queued snapshot publications).
func (ts *Threads) CompactClockBytes() (live, peak int64) {
	if ts.arena == nil {
		return 0, 0
	}
	return ts.arena.LiveBytes(), ts.arena.PeakBytes()
}

// noteGeneralPeak records the current general-representation footprint in
// the high-water mark. Called at the sync operations that grow general
// clocks or queue publications; access-path code never samples it.
func (ts *Threads) noteGeneralPeak() {
	if ts.general > ts.generalPeak {
		ts.generalPeak = ts.general
	}
}

// GeneralClockPeakBytes returns the high-water mark of GeneralClockBytes,
// the peak-to-peak counterpart of CompactClockBytes' second return.
func (ts *Threads) GeneralClockPeakBytes() int64 {
	ts.noteGeneralPeak()
	return ts.generalPeak
}

// GeneralClockBytes returns the accounting size of all general-representation
// thread clocks plus queued vector-clock publications (channel queues and
// WaitGroup entries). Lock, reader and barrier clocks are reported
// separately by LockClockBytes. It is a running total, kept up to date at
// the clock, queue or WaitGroup each operation touches, so reading it is
// O(1).
func (ts *Threads) GeneralClockBytes() int64 { return ts.general }
