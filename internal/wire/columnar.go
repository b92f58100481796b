// Columnar batch encoding: a delta-varint, column-transposed encoding of
// event batches that exploits the same locality the paper's dynamic
// granularity exploits for clock sharing. Consecutive events of a
// real execution overwhelmingly share their thread (the scheduler runs one
// thread for a whole quantum), repeat a small set of code sites, and walk
// addresses in small strides — so transposing a batch into per-field
// columns turns most fields into runs and tiny deltas:
//
//	column  encoding
//	ops     run length: (op byte, varint run)*        — quantum-long runs
//	tids    run length: (zigzag varint tid, varint run)*
//	addrs   per record: zigzag varint delta vs previous record
//	sizes   per record: varint
//	pcs     per record: zigzag varint delta vs previous record
//	aux     per record: zigzag varint delta vs previous record
//	seqs    per record: zigzag varint delta vs previous record
//
// The payload opens with a varint record count; columns follow in the
// order above and must consume the payload exactly. A typical access
// record costs 4–6 bytes against its fixed-width RecSize of 37 (ops and
// tids amortize to fractions of a byte, the addr delta is 1–2 bytes, and
// constant sizes / repeated PCs / zero aux / +1 seq are one byte each).
//
// Deltas are computed in uint64 with wraparound, so every field value is
// representable and encode∘decode is the identity for arbitrary records,
// not just well-formed streams (FuzzWireRoundTrip pins this).
package wire

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/vc"
)

// errColumnar is the base decode error; call sites wrap it with position
// detail (the error path is cold, the happy path allocates nothing).
var errColumnar = errors.New("wire: malformed columnar payload")

// zigzag maps a signed delta onto an unsigned varint-friendly value
// (0,-1,1,-2 → 0,1,2,3).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends v in LEB128. The single-byte case — the vast
// majority of column values — is branched first.
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendColumnar appends the columnar encoding of recs to dst and returns
// the extended slice. It allocates only when dst must grow, so a caller
// that reuses its buffer encodes with zero steady-state allocations.
func AppendColumnar(dst []byte, recs []event.Rec) []byte {
	n := len(recs)
	dst = appendUvarint(dst, uint64(n))
	if n == 0 {
		return dst
	}
	// ops: run length.
	for i := 0; i < n; {
		op := recs[i].Op
		j := i + 1
		for j < n && recs[j].Op == op {
			j++
		}
		dst = append(dst, byte(op))
		dst = appendUvarint(dst, uint64(j-i))
		i = j
	}
	// tids: run length.
	for i := 0; i < n; {
		tid := recs[i].Tid
		j := i + 1
		for j < n && recs[j].Tid == tid {
			j++
		}
		dst = appendUvarint(dst, zigzag(int64(tid)))
		dst = appendUvarint(dst, uint64(j-i))
		i = j
	}
	// addrs: zigzag delta.
	var prev uint64
	for i := range recs {
		a := recs[i].Addr
		dst = appendUvarint(dst, zigzag(int64(a-prev)))
		prev = a
	}
	// sizes: plain varint.
	for i := range recs {
		dst = appendUvarint(dst, uint64(recs[i].Size))
	}
	// pcs: zigzag delta.
	prev = 0
	for i := range recs {
		p := uint64(recs[i].PC)
		dst = appendUvarint(dst, zigzag(int64(p-prev)))
		prev = p
	}
	// aux: zigzag delta.
	prev = 0
	for i := range recs {
		a := recs[i].Aux
		dst = appendUvarint(dst, zigzag(int64(a-prev)))
		prev = a
	}
	// seqs: zigzag delta.
	prev = 0
	for i := range recs {
		s := recs[i].Seq
		dst = appendUvarint(dst, zigzag(int64(s-prev)))
		prev = s
	}
	return dst
}

// colReader is a bounds-checked cursor over a columnar payload.
type colReader struct {
	p   []byte
	off int
}

// uvarint reads one LEB128 value, rejecting truncation and >64-bit
// encodings.
func (r *colReader) uvarint() (uint64, error) {
	p, off := r.p, r.off
	if off < len(p) && p[off] < 0x80 { // single-byte fast path
		r.off = off + 1
		return uint64(p[off]), nil
	}
	var v uint64
	var shift uint
	for off < len(p) {
		b := p[off]
		off++
		if shift == 63 && b > 1 {
			return 0, fmt.Errorf("%w: varint overflows 64 bits at offset %d", errColumnar, r.off)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			r.off = off
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, fmt.Errorf("%w: varint too long at offset %d", errColumnar, r.off)
		}
	}
	return 0, fmt.Errorf("%w: truncated varint at offset %d", errColumnar, r.off)
}

// AppendBatchFrame encodes b's records as a columnar Batch frame appended
// to dst. The frame's sequence number is h.Seq (the caller's batch
// counter); the records' own Seq fields ride along inside the payload so a
// decoded batch is bit-identical to the encoded one.
func AppendBatchFrame(dst []byte, h Header, b *event.Batch) []byte {
	h.Type = TypeBatch
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	dst = AppendColumnar(dst, b.Recs)
	payload := dst[off+HeaderSize:]
	putHeader(dst[off:], h, uint32(len(payload)), checksum(payload))
	return dst
}

// DecodeColumnarColsInto decodes a columnar payload into c, appending to
// its columns. The payload is column-major already, so each column section
// streams into one contiguous slice. The payload must parse exactly: every
// column must cover every record, op codes must be valid, and no bytes may
// trail the last column. On any error c is rewound to its length at entry,
// so a pooled Cols is never recycled with partial records in it.
func DecodeColumnarColsInto(payload []byte, c *event.Cols) error {
	r := colReader{p: payload}
	n64, err := r.uvarint()
	if err != nil {
		return err
	}
	if n64 > uint64(len(payload)) {
		// Every record costs at least 5 payload bytes (one per per-record
		// column), so a count beyond the payload length is a lie; rejecting
		// it here bounds the allocation by the frame size.
		return fmt.Errorf("%w: record count %d exceeds payload length %d", errColumnar, n64, len(payload))
	}
	n := int(n64)
	if n == 0 {
		if r.off != len(payload) {
			return fmt.Errorf("%w: %d trailing bytes", errColumnar, len(payload)-r.off)
		}
		return nil
	}
	base := c.Len()
	c.Ops = slices.Grow(c.Ops, n)[:base+n]
	c.Tids = slices.Grow(c.Tids, n)[:base+n]
	c.Sizes = slices.Grow(c.Sizes, n)[:base+n]
	c.PCs = slices.Grow(c.PCs, n)[:base+n]
	c.Addrs = slices.Grow(c.Addrs, n)[:base+n]
	c.Auxs = slices.Grow(c.Auxs, n)[:base+n]
	c.Seqs = slices.Grow(c.Seqs, n)[:base+n]
	fail := func(err error) error {
		c.Truncate(base)
		return err
	}
	// ops: run length.
	ops := c.Ops[base:]
	for i := 0; i < n; {
		if r.off >= len(r.p) {
			return fail(fmt.Errorf("%w: truncated op column", errColumnar))
		}
		op := event.Op(r.p[r.off])
		r.off++
		if op > MaxOp {
			return fail(fmt.Errorf("%w: unknown op %d", errColumnar, op))
		}
		run, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		if run == 0 || run > uint64(n-i) {
			return fail(fmt.Errorf("%w: op run %d overflows %d remaining records", errColumnar, run, n-i))
		}
		for j := 0; j < int(run); j++ {
			ops[i+j] = op
		}
		i += int(run)
	}
	// tids: run length.
	tids := c.Tids[base:]
	for i := 0; i < n; {
		tv, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		tid := vc.TID(unzigzag(tv))
		run, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		if run == 0 || run > uint64(n-i) {
			return fail(fmt.Errorf("%w: tid run %d overflows %d remaining records", errColumnar, run, n-i))
		}
		for j := 0; j < int(run); j++ {
			tids[i+j] = tid
		}
		i += int(run)
	}
	// addrs: zigzag delta.
	addrs := c.Addrs[base:]
	var prev uint64
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		addrs[i] = prev
	}
	// sizes.
	sizes := c.Sizes[base:]
	for i := 0; i < n; i++ {
		s, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		if s > 0xffffffff {
			return fail(fmt.Errorf("%w: size %d overflows uint32", errColumnar, s))
		}
		sizes[i] = uint32(s)
	}
	// pcs: zigzag delta.
	pcs := c.PCs[base:]
	prev = 0
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		if prev > 0xffffffff {
			return fail(fmt.Errorf("%w: pc %d overflows uint32", errColumnar, prev))
		}
		pcs[i] = event.PC(prev)
	}
	// aux: zigzag delta.
	auxs := c.Auxs[base:]
	prev = 0
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		auxs[i] = prev
	}
	// seqs: zigzag delta.
	seqs := c.Seqs[base:]
	prev = 0
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		seqs[i] = prev
	}
	if r.off != len(payload) {
		return fail(fmt.Errorf("%w: %d trailing bytes", errColumnar, len(payload)-r.off))
	}
	return nil
}

// DecodeColumnarCols decodes a columnar payload into a pooled columnar
// batch; the caller returns it with event.PutCols. On error the pooled
// batch is returned to its pool here — decode failures never leak.
func DecodeColumnarCols(payload []byte) (*event.Cols, error) {
	c := event.GetCols()
	if err := DecodeColumnarColsInto(payload, c); err != nil {
		event.PutCols(c)
		return nil, err
	}
	return c, nil
}
