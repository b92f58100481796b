// Go-native synchronization: the happens-before edges of channel send,
// receive and rendezvous ack, and of WaitGroup Done/Wait, as the Go memory
// model defines them. Each edge is a publication — a copy of the
// publisher's clock taken just before the publisher starts its next epoch —
// that the matching acquire-side operation joins into its own clock.
package fasttrack

import (
	"repro/internal/event"
	"repro/internal/vc"
)

// fifo is a head-compacting queue of published clocks. Popping advances a
// head index instead of re-slicing, so the backing array is reused and the
// steady state allocates nothing.
type fifo struct {
	vals []*vc.VC
	head int
}

func (f *fifo) push(v *vc.VC) {
	if f.head == len(f.vals) {
		f.vals = f.vals[:0]
		f.head = 0
	}
	f.vals = append(f.vals, v)
}

func (f *fifo) pop() *vc.VC {
	if f.head >= len(f.vals) {
		return nil
	}
	v := f.vals[f.head]
	f.vals[f.head] = nil
	f.head++
	return v
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

// wgDone is the latest Done publication of one owner thread.
type wgDone struct {
	tid vc.TID
	pub *vc.VC
}

// wgClock keeps, per WaitGroup, the latest Done publication of each owner
// thread; Wait absorbs them all. Replacing per owner is sound because a
// later publication of the same thread dominates its earlier ones, and the
// engine emits Wait immediately after the Done that releases it, so no
// later-round Done can slip in front.
type wgClock struct {
	done []wgDone
}

// publish snapshots t's time for a release-style edge and advances t to a
// new epoch.
func (ts *Threads) publish(t vc.TID) *vc.VC {
	tc := ts.ensure(t)
	pub := tc.CloneIn(ts.pool)
	ts.tick(t, tc)
	return pub
}

// absorbNext pops the oldest publication of q, if any, joins it into t's
// clock (the acquire side) and releases its storage.
func (ts *Threads) absorbNext(t vc.TID, q *fifo) {
	if pub := q.pop(); pub != nil {
		ts.ensure(t).Join(pub)
		pub.Release()
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
		ts.absorbNext(t, &c.recvq)
	}
	c.sendq.push(ts.publish(t))
}

// ChanRecv applies the k-th receive on ch: absorb the k-th send's
// publication, then publish for the back edge (slot reuse or ack).
func (ts *Threads) ChanRecv(t vc.TID, ch event.ChanID, capacity int) {
	c := ts.chanFor(ch, capacity)
	c.recvs++
	ts.absorbNext(t, &c.sendq)
	c.recvq.push(ts.publish(t))
}

// ChanAck applies the unbuffered rendezvous back edge: the sender absorbs
// the matching receiver's publication. No new epoch (it is an acquire).
func (ts *Threads) ChanAck(t vc.TID, ch event.ChanID, capacity int) {
	ts.absorbNext(t, &ts.chanFor(ch, capacity).recvq)
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
	pub := ts.publish(t)
	for i := range w.done {
		if w.done[i].tid == t {
			w.done[i].pub.Release()
			w.done[i].pub = pub
			return
		}
	}
	w.done = append(w.done, wgDone{tid: t, pub: pub})
}

// WGWait absorbs every Done publication of the group. Entries persist: a
// group may be reused for further rounds.
func (ts *Threads) WGWait(t vc.TID, wg event.WGID) {
	for _, d := range ts.wgFor(wg).done {
		ts.ensure(t).Join(d.pub)
	}
}
