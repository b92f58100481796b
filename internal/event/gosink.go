// Go-native synchronization events: channel send/receive and WaitGroup
// operations. These extend the pthread-shaped Sink vocabulary with the
// primitives Go programs actually synchronize through, so detectors see
// handoff edges directly instead of through mutex over-approximations.
//
// To avoid breaking the many existing Sink implementations, the Go surface
// is the *optional* GoSink interface plus package-level Dispatch helpers:
// a sink that implements GoSink receives the native event; any other sink
// receives a sound lowering onto synthetic per-object locks (a channel
// operation behaves like acquire+release of the channel's lock, likewise
// WaitGroup.Done/Wait). The lowering over-synchronizes — it orders
// operations the Go memory model leaves concurrent — so it can mask races
// but never invent them, which is the safe direction for a fallback.
package event

import "repro/internal/vc"

// ChanID identifies a channel in the analyzed program.
type ChanID int32

// WGID identifies a WaitGroup in the analyzed program.
type WGID int32

// Synthetic lock-id ranges for the lowering fallback. Real locks are small
// dense ids from sim.NewLock, so the high ranges cannot collide.
const (
	chanLockBase LockID = 1 << 30
	wgLockBase   LockID = 1<<30 | 1<<29
)

// ChanLock returns the synthetic lock the lowering uses for channel ch.
func ChanLock(ch ChanID) LockID { return chanLockBase + LockID(ch) }

// WGLock returns the synthetic lock the lowering uses for WaitGroup wg.
func WGLock(wg WGID) LockID { return wgLockBase + LockID(wg) }

// GoSink is the optional extension of Sink for Go-native synchronization.
// The Go memory model edges it encodes:
//
//   - The k-th send on a channel happens before the k-th receive completes
//     (ChanSend publishes, ChanRecv absorbs).
//   - For a channel with capacity C, the k-th receive happens before the
//     (k+C)-th send completes (ChanSend absorbs the matching receive's
//     publication when it reuses the slot).
//   - For an unbuffered channel, the receive happens before the send
//     completes; ChanAck is emitted for the *sender* after the matching
//     receive and absorbs the receiver's publication. It is only emitted
//     when cap == 0.
//   - The n-th WaitGroup.Done happens before the Wait that it releases
//     (WGDone publishes, WGWait absorbs all publications). WGAdd carries
//     the counter delta but creates no edge.
type GoSink interface {
	Sink

	// ChanSend reports that tid completed a send on ch (capacity cap).
	ChanSend(tid vc.TID, ch ChanID, cap int)
	// ChanRecv reports that tid completed a receive on ch.
	ChanRecv(tid vc.TID, ch ChanID, cap int)
	// ChanAck reports the unbuffered-rendezvous back edge: the sender tid
	// observes the matching receiver's publication.
	ChanAck(tid vc.TID, ch ChanID, cap int)

	// WGAdd reports WaitGroup.Add(delta) by tid.
	WGAdd(tid vc.TID, wg WGID, delta int)
	// WGDone reports WaitGroup.Done by tid.
	WGDone(tid vc.TID, wg WGID)
	// WGWait reports that tid's Wait returned (emitted after the releasing
	// Done, so it follows every publication it must absorb).
	WGWait(tid vc.TID, wg WGID)
}

// DispatchChanSend delivers a channel send to s, lowering to the channel's
// synthetic lock when s does not implement GoSink.
func DispatchChanSend(s Sink, tid vc.TID, ch ChanID, cap int) {
	if gs, ok := s.(GoSink); ok {
		gs.ChanSend(tid, ch, cap)
		return
	}
	l := ChanLock(ch)
	s.Acquire(tid, l)
	s.Release(tid, l)
}

// DispatchChanRecv delivers a channel receive, with the same lowering.
func DispatchChanRecv(s Sink, tid vc.TID, ch ChanID, cap int) {
	if gs, ok := s.(GoSink); ok {
		gs.ChanRecv(tid, ch, cap)
		return
	}
	l := ChanLock(ch)
	s.Acquire(tid, l)
	s.Release(tid, l)
}

// DispatchChanAck delivers the unbuffered back edge. The lowering needs no
// extra operation: the lock round-trips of send and receive already order
// the rendezvous both ways.
func DispatchChanAck(s Sink, tid vc.TID, ch ChanID, cap int) {
	if gs, ok := s.(GoSink); ok {
		gs.ChanAck(tid, ch, cap)
	}
}

// DispatchWGAdd delivers WaitGroup.Add. No edge, so no lowering needed.
func DispatchWGAdd(s Sink, tid vc.TID, wg WGID, delta int) {
	if gs, ok := s.(GoSink); ok {
		gs.WGAdd(tid, wg, delta)
	}
}

// DispatchWGDone delivers WaitGroup.Done, lowering to the group's lock.
func DispatchWGDone(s Sink, tid vc.TID, wg WGID) {
	if gs, ok := s.(GoSink); ok {
		gs.WGDone(tid, wg)
		return
	}
	l := WGLock(wg)
	s.Acquire(tid, l)
	s.Release(tid, l)
}

// DispatchWGWait delivers WaitGroup.Wait, lowering to the group's lock.
func DispatchWGWait(s Sink, tid vc.TID, wg WGID) {
	if gs, ok := s.(GoSink); ok {
		gs.WGWait(tid, wg)
		return
	}
	l := WGLock(wg)
	s.Acquire(tid, l)
	s.Release(tid, l)
}

// Nop ignores the Go-native events too.

func (Nop) ChanSend(vc.TID, ChanID, int) {}
func (Nop) ChanRecv(vc.TID, ChanID, int) {}
func (Nop) ChanAck(vc.TID, ChanID, int)  {}
func (Nop) WGAdd(vc.TID, WGID, int)      {}
func (Nop) WGDone(vc.TID, WGID)          {}
func (Nop) WGWait(vc.TID, WGID)          {}

// Counter tallies the Go-native events.

func (c *Counter) ChanSend(vc.TID, ChanID, int) { c.ChanSends++ }
func (c *Counter) ChanRecv(vc.TID, ChanID, int) { c.ChanRecvs++ }
func (c *Counter) ChanAck(vc.TID, ChanID, int)  { c.ChanAcks++ }
func (c *Counter) WGAdd(vc.TID, WGID, int)      { c.WGAdds++ }
func (c *Counter) WGDone(vc.TID, WGID)          { c.WGDones++ }
func (c *Counter) WGWait(vc.TID, WGID)          { c.WGWaits++ }

// Tee forwards through the dispatch helpers so each member gets the native
// event or its lowering according to what it implements.

func (t Tee) ChanSend(tid vc.TID, ch ChanID, cap int) {
	for _, s := range t {
		DispatchChanSend(s, tid, ch, cap)
	}
}
func (t Tee) ChanRecv(tid vc.TID, ch ChanID, cap int) {
	for _, s := range t {
		DispatchChanRecv(s, tid, ch, cap)
	}
}
func (t Tee) ChanAck(tid vc.TID, ch ChanID, cap int) {
	for _, s := range t {
		DispatchChanAck(s, tid, ch, cap)
	}
}
func (t Tee) WGAdd(tid vc.TID, wg WGID, delta int) {
	for _, s := range t {
		DispatchWGAdd(s, tid, wg, delta)
	}
}
func (t Tee) WGDone(tid vc.TID, wg WGID) {
	for _, s := range t {
		DispatchWGDone(s, tid, wg)
	}
}
func (t Tee) WGWait(tid vc.TID, wg WGID) {
	for _, s := range t {
		DispatchWGWait(s, tid, wg)
	}
}

// Encoder records the Go-native events; see Rec for the field conventions.

func (e *Encoder) ChanSend(tid vc.TID, ch ChanID, cap int) {
	e.push(Rec{Op: OpChanSend, Tid: tid, Aux: uint64(uint32(ch)), Size: uint32(cap)})
}
func (e *Encoder) ChanRecv(tid vc.TID, ch ChanID, cap int) {
	e.push(Rec{Op: OpChanRecv, Tid: tid, Aux: uint64(uint32(ch)), Size: uint32(cap)})
}
func (e *Encoder) ChanAck(tid vc.TID, ch ChanID, cap int) {
	e.push(Rec{Op: OpChanAck, Tid: tid, Aux: uint64(uint32(ch)), Size: uint32(cap)})
}
func (e *Encoder) WGAdd(tid vc.TID, wg WGID, delta int) {
	e.push(Rec{Op: OpWGAdd, Tid: tid, Aux: uint64(uint32(wg)), Size: uint32(delta)})
}
func (e *Encoder) WGDone(tid vc.TID, wg WGID) {
	e.push(Rec{Op: OpWGDone, Tid: tid, Aux: uint64(uint32(wg))})
}
func (e *Encoder) WGWait(tid vc.TID, wg WGID) {
	e.push(Rec{Op: OpWGWait, Tid: tid, Aux: uint64(uint32(wg))})
}
