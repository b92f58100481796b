// Columnar batch transport: a structure-of-arrays view of one event
// batch. The wire codec's v2 payloads are already columnar on the wire
// (internal/wire AppendColumnar), and the server decodes each frame into
// a Cols. A one-worker session hands the whole Cols to its detection
// worker (pipeline.TakeCols); every other batch is replayed record by
// record into the pipeline's Sink methods through Apply.
package event

import (
	"sync"
	"sync/atomic"

	"repro/internal/vc"
)

// Cols is a structure-of-arrays batch: column i across all slices is the
// record Rec(i). All columns always have equal length. Field use per Op
// matches Rec exactly.
type Cols struct {
	Ops   []Op
	Tids  []vc.TID
	Sizes []uint32
	PCs   []PC
	Addrs []uint64
	Auxs  []uint64
	Seqs  []uint64

	// Trace and Span carry the distributed-trace context of the client
	// batch these records came from (0 = untraced), exactly like
	// Batch.Trace/Span.
	Trace uint64
	Span  uint64
}

// Len returns the number of records in the batch.
func (c *Cols) Len() int { return len(c.Ops) }

// Reset truncates every column to length zero, keeping capacity.
func (c *Cols) Reset() {
	c.Ops = c.Ops[:0]
	c.Tids = c.Tids[:0]
	c.Sizes = c.Sizes[:0]
	c.PCs = c.PCs[:0]
	c.Addrs = c.Addrs[:0]
	c.Auxs = c.Auxs[:0]
	c.Seqs = c.Seqs[:0]
	c.Trace, c.Span = 0, 0
}

// Truncate cuts every column back to n records (error-path rewind for
// decoders that appended a partial batch).
func (c *Cols) Truncate(n int) {
	c.Ops = c.Ops[:n]
	c.Tids = c.Tids[:n]
	c.Sizes = c.Sizes[:n]
	c.PCs = c.PCs[:n]
	c.Addrs = c.Addrs[:n]
	c.Auxs = c.Auxs[:n]
	c.Seqs = c.Seqs[:n]
}

// Move copies record src over record dst, for compacting a batch in
// place (dst ≤ src).
func (c *Cols) Move(dst, src int) {
	c.Ops[dst], c.Tids[dst], c.Sizes[dst], c.PCs[dst] = c.Ops[src], c.Tids[src], c.Sizes[src], c.PCs[src]
	c.Addrs[dst], c.Auxs[dst], c.Seqs[dst] = c.Addrs[src], c.Auxs[src], c.Seqs[src]
}

// Append adds one record to every column.
func (c *Cols) Append(r Rec) {
	c.Ops = append(c.Ops, r.Op)
	c.Tids = append(c.Tids, r.Tid)
	c.Sizes = append(c.Sizes, r.Size)
	c.PCs = append(c.PCs, r.PC)
	c.Addrs = append(c.Addrs, r.Addr)
	c.Auxs = append(c.Auxs, r.Aux)
	c.Seqs = append(c.Seqs, r.Seq)
}

// Rec materializes record i (the row-major view of column i).
func (c *Cols) Rec(i int) Rec {
	return Rec{
		Op:   c.Ops[i],
		Tid:  c.Tids[i],
		Size: c.Sizes[i],
		PC:   c.PCs[i],
		Addr: c.Addrs[i],
		Aux:  c.Auxs[i],
		Seq:  c.Seqs[i],
	}
}

// Apply replays the batch into s in record order and returns the
// sequence number of the last record applied (0 when the batch is empty).
func (c *Cols) Apply(s Sink) uint64 {
	n := c.Len()
	if n == 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		r := c.Rec(i)
		ApplyRec(s, &r)
	}
	return c.Seqs[n-1]
}

// colsPool recycles Cols like batchPool recycles Batches; gets/puts are
// counted so leak audits can assert decoder error paths return what they
// took (see PoolCounts).
var colsPool = sync.Pool{
	New: func() any {
		return &Cols{
			Ops:   make([]Op, 0, DefaultBatchSize),
			Tids:  make([]vc.TID, 0, DefaultBatchSize),
			Sizes: make([]uint32, 0, DefaultBatchSize),
			PCs:   make([]PC, 0, DefaultBatchSize),
			Addrs: make([]uint64, 0, DefaultBatchSize),
			Auxs:  make([]uint64, 0, DefaultBatchSize),
			Seqs:  make([]uint64, 0, DefaultBatchSize),
		}
	},
}

var (
	batchGets atomic.Uint64
	batchPuts atomic.Uint64
	colsGets  atomic.Uint64
	colsPuts  atomic.Uint64
)

// GetCols returns an empty columnar batch from the reuse pool.
func GetCols() *Cols {
	colsGets.Add(1)
	c := colsPool.Get().(*Cols)
	c.Reset()
	return c
}

// PutCols returns a columnar batch to the reuse pool. The caller must not
// touch it afterwards.
func PutCols(c *Cols) {
	colsPuts.Add(1)
	colsPool.Put(c)
}

// PoolCounts returns the lifetime get/put traffic of the batch and cols
// pools. A code path that takes pooled batches and returns them on every
// exit — including every decode error — keeps gets-puts constant across
// its failures; the leak regression tests pin that.
func PoolCounts() (batchGet, batchPut, colsGet, colsPut uint64) {
	return batchGets.Load(), batchPuts.Load(), colsGets.Load(), colsPuts.Load()
}
