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
// Two encoders write these bytes. AppendColumnar and AppendBatchFrame
// transpose records that already exist, one column at a time;
// ColumnEncoder writes the columns one record at a time, so a producer
// (the remote client) encodes each event as it happens and never holds a
// batch as records. TestColumnarGoldenBytes pins both to the same bytes.
// Deltas are computed in uint64 with wraparound, so every field value is
// representable and encode∘decode is the identity for arbitrary records,
// not just well-formed streams (FuzzWireRoundTrip pins this).
package wire

import (
	"encoding/binary"
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

// AppendBatchFrame encodes b's records as an untraced columnar Batch frame
// appended to dst. The frame's sequence number is h.Seq (the caller's
// batch counter); the records' own Seq fields ride along inside the
// payload so a decoded batch is bit-identical to the encoded one.
func AppendBatchFrame(dst []byte, h Header, b *event.Batch) []byte {
	off := len(dst)
	dst = AppendColumnar(append(dst, make([]byte, HeaderSize)...), b.Recs)
	return sealBatchFrame(dst, off, h)
}

// sealBatchFrame writes the Batch frame header for the payload that
// follows the HeaderSize bytes reserved at dst[off:].
func sealBatchFrame(dst []byte, off int, h Header) []byte {
	h.Type = TypeBatch
	payload := dst[off+HeaderSize:]
	putHeader(dst[off:], h, uint32(len(payload)), checksum(payload))
	return dst
}

// ColumnEncoder builds a columnar payload one record at a time, so a
// producer encodes each event as it happens instead of buffering records
// and transposing them at flush. Every per-record column has its own byte
// section that Append extends; the op and tid columns keep their current
// run open and close it into their section when the value changes. The
// payload (AppendPayload) or a whole Batch frame (AppendFrame) is then the
// record count followed by the sections in the column order above. The
// zero value is empty and ready; Reset empties it keeping the sections'
// capacity, so an encoder reused across batches allocates nothing once
// its sections have grown.
type ColumnEncoder struct {
	n int
	// ops and tids hold the closed runs; op/opRun and tid/tidRun are the
	// open ones (empty when n is 0).
	ops, tids []byte
	op        event.Op
	tid       vc.TID
	opRun     uint64
	tidRun    uint64
	// One section per per-record column, and the previous record's values
	// the delta columns are taken against.
	addrs, sizes, pcs, auxs, seqs []byte
	addr, pc, aux, seq            uint64
}

// Len returns the number of records appended since the last Reset.
func (e *ColumnEncoder) Len() int { return e.n }

// Reset empties the encoder, keeping its sections' capacity.
func (e *ColumnEncoder) Reset() {
	e.n, e.opRun, e.tidRun = 0, 0, 0
	e.ops, e.tids = e.ops[:0], e.tids[:0]
	e.addrs, e.sizes, e.pcs, e.auxs, e.seqs = e.addrs[:0], e.sizes[:0], e.pcs[:0], e.auxs[:0], e.seqs[:0]
	e.addr, e.pc, e.aux, e.seq = 0, 0, 0, 0
}

// Append encodes one record.
func (e *ColumnEncoder) Append(r event.Rec) {
	if r.Op != e.op && e.n > 0 {
		e.ops = appendUvarint(append(e.ops, byte(e.op)), e.opRun)
		e.opRun = 0
	}
	if r.Tid != e.tid && e.n > 0 {
		e.tids = appendUvarint(appendUvarint(e.tids, zigzag(int64(e.tid))), e.tidRun)
		e.tidRun = 0
	}
	e.op, e.tid = r.Op, r.Tid
	e.opRun++
	e.tidRun++
	e.n++
	pc := uint64(r.PC)
	e.addrs = appendUvarint(e.addrs, zigzag(int64(r.Addr-e.addr)))
	e.sizes = appendUvarint(e.sizes, uint64(r.Size))
	e.pcs = appendUvarint(e.pcs, zigzag(int64(pc-e.pc)))
	e.auxs = appendUvarint(e.auxs, zigzag(int64(r.Aux-e.aux)))
	e.seqs = appendUvarint(e.seqs, zigzag(int64(r.Seq-e.seq)))
	e.addr, e.pc, e.aux, e.seq = r.Addr, pc, r.Aux, r.Seq
}

// AppendPayload appends the columnar payload of the records appended since
// the last Reset to dst. The encoder is left unchanged.
func (e *ColumnEncoder) AppendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(e.n))
	if e.n == 0 {
		return dst
	}
	dst = append(dst, e.ops...)
	dst = appendUvarint(append(dst, byte(e.op)), e.opRun)
	dst = append(dst, e.tids...)
	dst = appendUvarint(appendUvarint(dst, zigzag(int64(e.tid))), e.tidRun)
	dst = append(dst, e.addrs...)
	dst = append(dst, e.sizes...)
	dst = append(dst, e.pcs...)
	dst = append(dst, e.auxs...)
	return append(dst, e.seqs...)
}

// AppendFrame appends a Batch frame carrying the encoder's payload to dst.
// The frame's sequence number is h.Seq (the sender's batch counter); the
// records' own Seq fields ride inside the payload. A non-zero trace
// prefixes the payload with the span context (trace, span) and sets
// FlagTraced; a zero trace gives the untraced frame, byte identical to
// AppendBatchFrame's, so an unsampled batch costs nothing extra on the
// wire.
func (e *ColumnEncoder) AppendFrame(dst []byte, h Header, trace, span uint64) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	if trace != 0 {
		h.Flags |= FlagTraced
		dst = binary.LittleEndian.AppendUint64(dst, trace)
		dst = binary.LittleEndian.AppendUint64(dst, span)
	}
	return sealBatchFrame(e.AppendPayload(dst), off, h)
}

// maxVarintLen is the longest LEB128 encoding of a 64-bit value.
const maxVarintLen = 10

// uvarintAt decodes the LEB128 value at p[off] and returns it with the
// offset just past it. Column loops decode single-byte values inline and
// call it for the rest: while at least maxVarintLen bytes remain no value
// can run off the payload, so the bytes are read unrolled with no bounds
// checks; only the payload's tail takes the checked loop, which also
// reports every malformed encoding.
func uvarintAt(p []byte, off int) (uint64, int, error) {
	if len(p)-off < maxVarintLen {
		return uvarintChecked(p, off)
	}
	b := (*[maxVarintLen]byte)(p[off:])
	v := uint64(b[0] & 0x7f)
	if b[0] < 0x80 {
		return v, off + 1, nil
	}
	v |= uint64(b[1]&0x7f) << 7
	if b[1] < 0x80 {
		return v, off + 2, nil
	}
	v |= uint64(b[2]&0x7f) << 14
	if b[2] < 0x80 {
		return v, off + 3, nil
	}
	v |= uint64(b[3]&0x7f) << 21
	if b[3] < 0x80 {
		return v, off + 4, nil
	}
	v |= uint64(b[4]&0x7f) << 28
	if b[4] < 0x80 {
		return v, off + 5, nil
	}
	v |= uint64(b[5]&0x7f) << 35
	if b[5] < 0x80 {
		return v, off + 6, nil
	}
	v |= uint64(b[6]&0x7f) << 42
	if b[6] < 0x80 {
		return v, off + 7, nil
	}
	v |= uint64(b[7]&0x7f) << 49
	if b[7] < 0x80 {
		return v, off + 8, nil
	}
	v |= uint64(b[8]&0x7f) << 56
	if b[8] < 0x80 {
		return v, off + 9, nil
	}
	if b[9] > 1 { // beyond 64 bits: the checked loop names the error
		return uvarintChecked(p, off)
	}
	return v | uint64(b[9])<<63, off + 10, nil
}

// uvarintChecked reads one LEB128 value at p[off] byte by byte, rejecting
// truncation and >64-bit encodings.
func uvarintChecked(p []byte, off int) (uint64, int, error) {
	start := off
	var v uint64
	var shift uint
	for off < len(p) {
		b := p[off]
		off++
		if shift == 63 && b > 1 {
			return 0, start, fmt.Errorf("%w: varint overflows 64 bits at offset %d", errColumnar, start)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, off, nil
		}
		shift += 7
	}
	return 0, start, fmt.Errorf("%w: truncated varint at offset %d", errColumnar, start)
}

// DecodeColumnarColsInto decodes a columnar payload into c, appending to
// its columns. The payload is column-major already, so each column section
// streams into one contiguous slice, in one loop per column: single-byte
// values — most of every column — are decoded inline, longer ones by
// uvarintAt. The payload must parse exactly: every column must cover every
// record, op codes must be valid, sizes and pcs must fit 32 bits, and no
// bytes may trail the last column. On any error c is rewound to its length
// at entry, so a pooled Cols is never recycled with partial records in it.
func DecodeColumnarColsInto(payload []byte, c *event.Cols) error {
	p := payload
	n64, off, err := uvarintAt(p, 0)
	if err != nil {
		return err
	}
	if n64 > uint64(len(p)) {
		// Every record costs at least 5 payload bytes (one per per-record
		// column), so a count beyond the payload length is a lie; rejecting
		// it here bounds the allocation by the frame size.
		return fmt.Errorf("%w: record count %d exceeds payload length %d", errColumnar, n64, len(p))
	}
	n := int(n64)
	if n == 0 {
		if off != len(p) {
			return fmt.Errorf("%w: %d trailing bytes", errColumnar, len(p)-off)
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
	// Every value below is read with the same two-case step: a
	// single-byte value inline, anything longer through uvarintAt. It is
	// written out in each loop because a helper holding both cases calls
	// uvarintAt, which puts it over the compiler's inlining budget.
	var v uint64
	// ops: run length.
	ops := c.Ops[base:]
	for i := 0; i < n; {
		if off >= len(p) {
			return fail(fmt.Errorf("%w: truncated op column", errColumnar))
		}
		op := event.Op(p[off])
		off++
		if op > MaxOp {
			return fail(fmt.Errorf("%w: unknown op %d", errColumnar, op))
		}
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		}
		if v == 0 || v > uint64(n-i) {
			return fail(fmt.Errorf("%w: op run %d overflows %d remaining records", errColumnar, v, n-i))
		}
		run := ops[i : i+int(v)]
		for j := range run {
			run[j] = op
		}
		i += int(v)
	}
	// tids: run length.
	tids := c.Tids[base:]
	for i := 0; i < n; {
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		}
		tid := vc.TID(unzigzag(v))
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		}
		if v == 0 || v > uint64(n-i) {
			return fail(fmt.Errorf("%w: tid run %d overflows %d remaining records", errColumnar, v, n-i))
		}
		run := tids[i : i+int(v)]
		for j := range run {
			run[j] = tid
		}
		i += int(v)
	}
	// addrs: zigzag delta.
	addrs := c.Addrs[base:]
	var prev uint64
	for i := range addrs {
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(v))
		addrs[i] = prev
	}
	// sizes.
	sizes := c.Sizes[base:]
	for i := range sizes {
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		} else if v > 0xffffffff {
			return fail(fmt.Errorf("%w: size %d overflows uint32", errColumnar, v))
		}
		sizes[i] = uint32(v)
	}
	// pcs: zigzag delta.
	pcs := c.PCs[base:]
	prev = 0
	for i := range pcs {
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(v))
		if prev > 0xffffffff {
			return fail(fmt.Errorf("%w: pc %d overflows uint32", errColumnar, prev))
		}
		pcs[i] = event.PC(prev)
	}
	// aux: zigzag delta.
	auxs := c.Auxs[base:]
	prev = 0
	for i := range auxs {
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(v))
		auxs[i] = prev
	}
	// seqs: zigzag delta.
	seqs := c.Seqs[base:]
	prev = 0
	for i := range seqs {
		if off < len(p) && p[off] < 0x80 {
			v = uint64(p[off])
			off++
		} else if v, off, err = uvarintAt(p, off); err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(v))
		seqs[i] = prev
	}
	if off != len(p) {
		return fail(fmt.Errorf("%w: %d trailing bytes", errColumnar, len(p)-off))
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
