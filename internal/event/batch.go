// Batch transport: a fixed-size, allocation-recycled encoding of the
// instrumentation event stream. The sharded detection pipeline
// (internal/pipeline) encodes events into Batches on the execution thread
// and ships them to detection workers over channels; sync.Pool reuse keeps
// the steady-state transport allocation-free. The encoding is also usable
// on its own (Batch.Apply replays a batch into any Sink).
package event

import (
	"sync"

	"repro/internal/vc"
)

// Op identifies the kind of one encoded instrumentation event.
type Op uint8

// Operation codes, one per Sink method.
const (
	OpRead Op = iota
	OpWrite
	OpAcquire
	OpRelease
	OpAcquireShared
	OpReleaseShared
	OpFork
	OpJoin
	OpBarrierArrive
	OpBarrierDepart
	OpMalloc
	OpFree
	OpChanSend
	OpChanRecv
	OpChanAck
	OpWGAdd
	OpWGDone
	OpWGWait
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAcquire:
		return "acquire"
	case OpRelease:
		return "release"
	case OpAcquireShared:
		return "acquire-shared"
	case OpReleaseShared:
		return "release-shared"
	case OpFork:
		return "fork"
	case OpJoin:
		return "join"
	case OpBarrierArrive:
		return "barrier-arrive"
	case OpBarrierDepart:
		return "barrier-depart"
	case OpMalloc:
		return "malloc"
	case OpFree:
		return "free"
	case OpChanSend:
		return "chan-send"
	case OpChanRecv:
		return "chan-recv"
	case OpChanAck:
		return "chan-ack"
	case OpWGAdd:
		return "wg-add"
	case OpWGDone:
		return "wg-done"
	case OpWGWait:
		return "wg-wait"
	default:
		return "?"
	}
}

// Rec is one fixed-size encoded event. Field use by Op:
//
//	OpRead/OpWrite:             Tid, Addr, Size, PC
//	OpAcquire(.Shared)/OpRelease(.Shared): Tid, Aux = LockID
//	OpFork/OpJoin:              Tid = parent, Aux = child TID
//	OpBarrierArrive/Depart:     Tid, Aux = BarrierID
//	OpMalloc/OpFree:            Tid, Addr, Aux = byte size
//	OpChanSend/Recv/Ack:        Tid, Aux = ChanID, Size = channel capacity
//	OpWGAdd:                    Tid, Aux = WGID, Size = delta
//	OpWGDone/OpWGWait:          Tid, Aux = WGID
//
// Seq is the event's global sequence number in the original stream; the
// pipeline uses it to merge per-worker race reports deterministically and
// to prove that every worker observed the same happens-before order.
type Rec struct {
	Addr uint64
	Aux  uint64
	Seq  uint64
	Tid  vc.TID
	PC   PC
	Size uint32
	Op   Op
}

// Record constructors, one per Sink and GoSink method: the one place an
// event's arguments map onto Rec fields (the table above; ApplyRec is the
// inverse). Every Sink that turns calls into records builds them here —
// the Encoder below, the remote client, the pipeline and the cluster sink
// — and stamps Seq itself where it numbers events.

func ReadRec(tid vc.TID, addr uint64, size uint32, pc PC) Rec {
	return Rec{Op: OpRead, Tid: tid, Addr: addr, Size: size, PC: pc}
}
func WriteRec(tid vc.TID, addr uint64, size uint32, pc PC) Rec {
	return Rec{Op: OpWrite, Tid: tid, Addr: addr, Size: size, PC: pc}
}
func AcquireRec(tid vc.TID, l LockID) Rec { return Rec{Op: OpAcquire, Tid: tid, Aux: uint64(l)} }
func ReleaseRec(tid vc.TID, l LockID) Rec { return Rec{Op: OpRelease, Tid: tid, Aux: uint64(l)} }
func AcquireSharedRec(tid vc.TID, l LockID) Rec {
	return Rec{Op: OpAcquireShared, Tid: tid, Aux: uint64(l)}
}
func ReleaseSharedRec(tid vc.TID, l LockID) Rec {
	return Rec{Op: OpReleaseShared, Tid: tid, Aux: uint64(l)}
}
func ForkRec(parent, child vc.TID) Rec { return Rec{Op: OpFork, Tid: parent, Aux: uint64(child)} }
func JoinRec(parent, child vc.TID) Rec { return Rec{Op: OpJoin, Tid: parent, Aux: uint64(child)} }
func BarrierArriveRec(tid vc.TID, b BarrierID) Rec {
	return Rec{Op: OpBarrierArrive, Tid: tid, Aux: uint64(b)}
}
func BarrierDepartRec(tid vc.TID, b BarrierID) Rec {
	return Rec{Op: OpBarrierDepart, Tid: tid, Aux: uint64(b)}
}
func MallocRec(tid vc.TID, addr, size uint64) Rec {
	return Rec{Op: OpMalloc, Tid: tid, Addr: addr, Aux: size}
}
func FreeRec(tid vc.TID, addr, size uint64) Rec {
	return Rec{Op: OpFree, Tid: tid, Addr: addr, Aux: size}
}
func ChanSendRec(tid vc.TID, ch ChanID, cap int) Rec {
	return Rec{Op: OpChanSend, Tid: tid, Aux: uint64(uint32(ch)), Size: uint32(cap)}
}
func ChanRecvRec(tid vc.TID, ch ChanID, cap int) Rec {
	return Rec{Op: OpChanRecv, Tid: tid, Aux: uint64(uint32(ch)), Size: uint32(cap)}
}
func ChanAckRec(tid vc.TID, ch ChanID, cap int) Rec {
	return Rec{Op: OpChanAck, Tid: tid, Aux: uint64(uint32(ch)), Size: uint32(cap)}
}
func WGAddRec(tid vc.TID, wg WGID, delta int) Rec {
	return Rec{Op: OpWGAdd, Tid: tid, Aux: uint64(uint32(wg)), Size: uint32(delta)}
}
func WGDoneRec(tid vc.TID, wg WGID) Rec { return Rec{Op: OpWGDone, Tid: tid, Aux: uint64(uint32(wg))} }
func WGWaitRec(tid vc.TID, wg WGID) Rec { return Rec{Op: OpWGWait, Tid: tid, Aux: uint64(uint32(wg))} }

// DefaultBatchSize is the number of records one Batch holds before the
// encoder ships it. 2048 records ≈ 80 KiB: large enough to amortize channel
// transfer to well under a nanosecond per event, small enough to keep
// worker latency and pool footprint bounded.
const DefaultBatchSize = 2048

// Batch is a fixed-capacity run of encoded events.
type Batch struct {
	Recs []Rec
	// Trace and Span carry the distributed-trace context of the client
	// batch these records came from (0 = unsampled/untraced). They ride the
	// batch through queues so a pipeline worker can parent its apply span
	// under the router's dispatch span; they never affect detection.
	Trace uint64
	Span  uint64
}

var batchPool = sync.Pool{
	New: func() any { return &Batch{Recs: make([]Rec, 0, DefaultBatchSize)} },
}

// GetBatch returns an empty batch from the reuse pool.
func GetBatch() *Batch {
	batchGets.Add(1)
	b := batchPool.Get().(*Batch)
	b.Recs = b.Recs[:0]
	b.Trace, b.Span = 0, 0
	return b
}

// PutBatch returns a batch to the reuse pool. The caller must not touch the
// batch afterwards.
func PutBatch(b *Batch) {
	batchPuts.Add(1)
	batchPool.Put(b)
}

// Full reports whether the batch reached its transport capacity.
func (b *Batch) Full() bool { return len(b.Recs) >= DefaultBatchSize }

// Append adds one record.
func (b *Batch) Append(r Rec) { b.Recs = append(b.Recs, r) }

// Apply replays the batch into s in record order and returns the sequence
// number of the last record applied (0 when the batch is empty).
func (b *Batch) Apply(s Sink) uint64 {
	var seq uint64
	for i := range b.Recs {
		r := &b.Recs[i]
		ApplyRec(s, r)
		seq = r.Seq
	}
	return seq
}

// ApplyRec dispatches one decoded record to the matching Sink method.
func ApplyRec(s Sink, r *Rec) {
	switch r.Op {
	case OpRead:
		s.Read(r.Tid, r.Addr, r.Size, r.PC)
	case OpWrite:
		s.Write(r.Tid, r.Addr, r.Size, r.PC)
	case OpAcquire:
		s.Acquire(r.Tid, LockID(r.Aux))
	case OpRelease:
		s.Release(r.Tid, LockID(r.Aux))
	case OpAcquireShared:
		s.AcquireShared(r.Tid, LockID(r.Aux))
	case OpReleaseShared:
		s.ReleaseShared(r.Tid, LockID(r.Aux))
	case OpFork:
		s.Fork(r.Tid, vc.TID(r.Aux))
	case OpJoin:
		s.Join(r.Tid, vc.TID(r.Aux))
	case OpBarrierArrive:
		s.BarrierArrive(r.Tid, BarrierID(r.Aux))
	case OpBarrierDepart:
		s.BarrierDepart(r.Tid, BarrierID(r.Aux))
	case OpMalloc:
		s.Malloc(r.Tid, r.Addr, r.Aux)
	case OpFree:
		s.Free(r.Tid, r.Addr, r.Aux)
	case OpChanSend:
		DispatchChanSend(s, r.Tid, ChanID(r.Aux), int(r.Size))
	case OpChanRecv:
		DispatchChanRecv(s, r.Tid, ChanID(r.Aux), int(r.Size))
	case OpChanAck:
		DispatchChanAck(s, r.Tid, ChanID(r.Aux), int(r.Size))
	case OpWGAdd:
		DispatchWGAdd(s, r.Tid, WGID(r.Aux), int(r.Size))
	case OpWGDone:
		DispatchWGDone(s, r.Tid, WGID(r.Aux))
	case OpWGWait:
		DispatchWGWait(s, r.Tid, WGID(r.Aux))
	}
}

// Encode translates one Sink call into a Rec (the inverse of ApplyRec for
// access events; sync events use the Aux field). It exists so tests and
// tools can build batches without duplicating the field conventions.
type Encoder struct {
	// Flush receives each full batch; the Encoder then starts a fresh one
	// from the pool. Must be non-nil.
	Flush func(*Batch)

	cur *Batch
	seq uint64
}

// push appends a record, stamping the next sequence number, and flushes
// when the batch is full.
func (e *Encoder) push(r Rec) {
	if e.cur == nil {
		e.cur = GetBatch()
	}
	e.seq++
	r.Seq = e.seq
	e.cur.Append(r)
	if e.cur.Full() {
		e.Flush(e.cur)
		e.cur = nil
	}
}

// Close flushes any partial batch.
func (e *Encoder) Close() {
	if e.cur != nil && len(e.cur.Recs) > 0 {
		e.Flush(e.cur)
	}
	e.cur = nil
}

// Seq returns the number of events encoded so far.
func (e *Encoder) Seq() uint64 { return e.seq }

// Sink implementation: every event becomes one record.

func (e *Encoder) Read(tid vc.TID, addr uint64, size uint32, pc PC) {
	e.push(ReadRec(tid, addr, size, pc))
}
func (e *Encoder) Write(tid vc.TID, addr uint64, size uint32, pc PC) {
	e.push(WriteRec(tid, addr, size, pc))
}
func (e *Encoder) Acquire(tid vc.TID, l LockID)       { e.push(AcquireRec(tid, l)) }
func (e *Encoder) Release(tid vc.TID, l LockID)       { e.push(ReleaseRec(tid, l)) }
func (e *Encoder) AcquireShared(tid vc.TID, l LockID) { e.push(AcquireSharedRec(tid, l)) }
func (e *Encoder) ReleaseShared(tid vc.TID, l LockID) { e.push(ReleaseSharedRec(tid, l)) }
func (e *Encoder) Fork(parent, child vc.TID)          { e.push(ForkRec(parent, child)) }
func (e *Encoder) Join(parent, child vc.TID)          { e.push(JoinRec(parent, child)) }
func (e *Encoder) BarrierArrive(tid vc.TID, b BarrierID) {
	e.push(BarrierArriveRec(tid, b))
}
func (e *Encoder) BarrierDepart(tid vc.TID, b BarrierID) {
	e.push(BarrierDepartRec(tid, b))
}
func (e *Encoder) Malloc(tid vc.TID, addr, size uint64) { e.push(MallocRec(tid, addr, size)) }
func (e *Encoder) Free(tid vc.TID, addr, size uint64)   { e.push(FreeRec(tid, addr, size)) }
