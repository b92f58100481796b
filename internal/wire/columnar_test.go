package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/vc"
)

// streamRecs builds a batch with the locality shape of a real event
// stream: threads run in scheduler-quantum-long runs, addresses walk in
// small strides, PCs repeat from a small site set, seqs increment by one.
func streamRecs(n int) []event.Rec {
	recs := make([]event.Rec, n)
	addr := uint64(0x10000)
	for i := range recs {
		tid := vc.TID(i / 64 % 4) // quantum of 64 events per thread
		op := event.OpRead
		if i%4 == 0 {
			op = event.OpWrite
		}
		addr += uint64(8 * (i%3 + 1)) // stride-predictable
		recs[i] = event.Rec{
			Op: op, Tid: tid, Addr: addr, Size: 8,
			PC:  event.MakePC(event.ModuleApp, uint32(i%7)),
			Seq: uint64(i + 1),
		}
	}
	return recs
}

// columnarCases are the round-trip inputs: nothing, one record, a
// locality-shaped stream, and every field at its extremes.
func columnarCases() map[string][]event.Rec {
	return map[string][]event.Rec{
		"empty":  nil,
		"single": {{Op: event.OpWrite, Tid: 3, Addr: 0xdeadbeef, Size: 4, PC: 17, Seq: 1}},
		"stream": streamRecs(2048),
		"extremes": {
			{Op: event.OpMalloc, Tid: -1, Addr: math.MaxUint64, Aux: math.MaxUint64, Seq: math.MaxUint64},
			{Op: event.OpFree, Tid: math.MaxInt32, Addr: 0, Aux: 0, Seq: 0},
			{Op: event.OpRead, Tid: math.MinInt32, Addr: 1, Size: math.MaxUint32, PC: math.MaxUint32, Seq: 9},
		},
	}
}

// goldenRecs is the record list the golden bytes encode: every op, runs of
// ops and tids, zero, negative and multi-byte deltas on addr, pc, aux and
// seq, sizes of 128 and above, and a 10-byte aux varint.
func goldenRecs() []event.Rec {
	return []event.Rec{
		{Op: event.OpRead, Tid: 0, Addr: 0x1000, Size: 8, PC: 0x10, Seq: 1},
		{Op: event.OpRead, Tid: 0, Addr: 0x1000, Size: 8, PC: 0x10, Seq: 2},
		{Op: event.OpWrite, Tid: 0, Addr: 0xff8, Size: 200, PC: 0x8, Seq: 3},
		{Op: event.OpWrite, Tid: 1, Addr: 0x7fff00001000, Size: 4096, PC: 0xabcdef, Seq: 1000},
		{Op: event.OpAcquire, Tid: 1, Aux: 5, Seq: 999},
		{Op: event.OpRelease, Tid: 1, Aux: 5, Seq: 1001},
		{Op: event.OpAcquireShared, Tid: 2, Aux: 300, Seq: 1002},
		{Op: event.OpReleaseShared, Tid: 2, Aux: 300, Seq: 1002},
		{Op: event.OpFork, Tid: 0, Aux: 3, Seq: 1003},
		{Op: event.OpJoin, Tid: 0, Aux: 3, Seq: 1004},
		{Op: event.OpBarrierArrive, Tid: 3, Aux: 1, Seq: 1005},
		{Op: event.OpBarrierDepart, Tid: 3, Aux: 1, Seq: 1006},
		{Op: event.OpMalloc, Tid: 3, Addr: 0x20000, Aux: 1 << 20, Seq: 1 << 40},
		{Op: event.OpFree, Tid: 3, Addr: 0x20000, Aux: 1 << 20, Seq: 1<<40 + 1},
		{Op: event.OpChanSend, Tid: -1, Aux: 7, Size: 0, Seq: 1<<40 + 2},
		{Op: event.OpChanRecv, Tid: 4, Aux: 7, Size: 128, Seq: 1<<40 + 3},
		{Op: event.OpChanAck, Tid: 4, Aux: 7, Size: 128, Seq: 1<<40 + 4},
		{Op: event.OpWGAdd, Tid: 5, Aux: 9, Size: 0xffffffff, Seq: 1<<40 + 5},
		{Op: event.OpWGDone, Tid: 6, Aux: 9, Seq: 1<<40 + 6},
		{Op: event.OpWGWait, Tid: 5, Aux: 1 << 63, Seq: 1<<40 + 7},
		{Op: event.OpRead, Tid: 5, Addr: 0x7fff00001000, Size: 1, PC: 0xabcdee, Aux: 0, Seq: 1<<40 + 8},
		{Op: event.OpRead, Tid: 5, Addr: 0x10, Size: 16, PC: 0xffffffff, Seq: 1<<40 + 9},
	}
}

// Protocol version 2 bytes of goldenRecs, recorded before ColumnEncoder
// existed (from AppendColumnar, AppendBatchFrame and the traced-frame
// encoder ColumnEncoder.AppendFrame replaced): the payload, the header of
// the untraced frame (session 0x0102030405060708, seq 77) and the header
// plus span-context prefix of the traced one (seq 78, trace
// 0x1122334455667788, span 0x99aabbccddeeff00). Both frames end in the
// payload. A version-2 peer must see exactly these bytes.
const (
	goldenPayloadHex = "" +
		"1600020102020103010401050106010701080109010a010b010c010d010e010f" +
		"0110011101000200030203040200020604010108020a010c010a038040000f90" +
		"808080e0ff3fffbf8080e0ff3f0000000000000080801000ffff0f0000000000" +
		"80c08080e0ff3fdfbf8080e0ff3f0808c8018020000000000000000000000080" +
		"018001ffffffff0f0000011020000fceb7de0addb7de0a000000000000000000" +
		"000000000000dcb7de0aa2c8a1f51f000000000a00ce0400d104000300feff7f" +
		"00f1ff7f00000400eeffffffffffffffff01ffffffffffffffffff0100020202" +
		"ca0f0104020002020202a4f0ffffff3f020202020202020202"
	goldenFrameHeaderHex  = "524477310300000008070605040302014d00000000000000f9000000ebee7a5a"
	goldenTracedHeaderHex = "524477310301000008070605040302014e0000000000000009010000180916ed" +
		"887766554433221100ffeeddccbbaa99"
)

// tracedFrame encodes recs as a Batch frame carrying span context
// (trace, span).
func tracedFrame(h Header, recs []event.Rec, trace, span uint64) []byte {
	var e ColumnEncoder
	for i := range recs {
		e.Append(recs[i])
	}
	return e.AppendFrame(nil, h, trace, span)
}

// TestColumnarGoldenBytes pins protocol version 2 byte for byte: every
// encoding entry point must reproduce the recorded payload and frames, a
// reused encoder must too, and the decoder must return the records.
func TestColumnarGoldenBytes(t *testing.T) {
	recs := goldenRecs()
	mustHex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	payload := mustHex(goldenPayloadHex)
	frame := append(mustHex(goldenFrameHeaderHex), payload...)
	traced := append(mustHex(goldenTracedHeaderHex), payload...)
	h := Header{Session: 0x0102030405060708, Seq: 77}
	th := Header{Session: 0x0102030405060708, Seq: 78}
	const trace, span = 0x1122334455667788, 0x99aabbccddeeff00
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", what, got, want)
		}
	}

	same("AppendColumnar", AppendColumnar(nil, recs), payload)
	same("AppendBatchFrame", AppendBatchFrame(nil, h, &event.Batch{Recs: recs}), frame)
	var e ColumnEncoder
	for round := 0; round < 2; round++ { // the second round reuses the encoder
		e.Reset()
		for i := range recs {
			e.Append(recs[i])
		}
		same("ColumnEncoder.AppendPayload", e.AppendPayload(nil), payload)
		same("ColumnEncoder.AppendFrame", e.AppendFrame(nil, h, 0, 0), frame)
		same("ColumnEncoder.AppendFrame traced", e.AppendFrame(nil, th, trace, span), traced)
	}

	rh, body, err := NewReader(bytes.NewReader(traced), 0).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, gotSpan, cols, err := SplitTracePrefix(rh, body)
	if err != nil || gotTrace != trace || gotSpan != span ||
		rh != (Header{Type: TypeBatch, Flags: FlagTraced, Session: th.Session, Seq: th.Seq}) {
		t.Fatalf("traced frame header %+v, context (%#x, %#x), err %v", rh, gotTrace, gotSpan, err)
	}
	for _, p := range [][]byte{payload, cols} {
		c, err := DecodeColumnarCols(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := colsRecs(c); !reflect.DeepEqual(got, recs) {
			t.Errorf("decoded records differ:\n got %+v\nwant %+v", got, recs)
		}
		event.PutCols(c)
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	for name, recs := range columnarCases() {
		t.Run(name, func(t *testing.T) {
			payload := AppendColumnar(nil, recs)
			c, err := DecodeColumnarCols(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			defer event.PutCols(c)
			if c.Len() != len(recs) {
				t.Fatalf("decoded %d records, want %d", c.Len(), len(recs))
			}
			for i, want := range recs {
				if got := c.Rec(i); got != want {
					t.Fatalf("record %d = %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestColsDecodeMatchesRecordDecode checks the column-major decoder
// against the record-at-a-time build of the same batch: decoding onto a
// Cols that already holds a record must leave every column exactly as
// appending the source records one by one would.
func TestColsDecodeMatchesRecordDecode(t *testing.T) {
	lead := event.Rec{Op: event.OpAcquire, Tid: 7, Addr: 0x40, Seq: 1}
	for name, recs := range columnarCases() {
		t.Run(name, func(t *testing.T) {
			want := &event.Cols{}
			want.Append(lead)
			for _, r := range recs {
				want.Append(r)
			}
			got := &event.Cols{}
			got.Append(lead)
			if err := DecodeColumnarColsInto(AppendColumnar(nil, recs), got); err != nil {
				t.Fatalf("cols decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded columns differ from the record-by-record build (%d vs %d records)",
					got.Len(), want.Len())
			}
		})
	}
}

func TestColumnarFrameRoundTrip(t *testing.T) {
	b := &event.Batch{Recs: streamRecs(500)}
	frame := AppendBatchFrame(nil, Header{Session: 42, Seq: 9}, b)
	h, payload, err := NewReader(bytes.NewReader(frame), 0).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeBatch || h.Session != 42 || h.Seq != 9 {
		t.Fatalf("header mangled: %+v", h)
	}
	got, err := DecodeColumnarCols(payload)
	if err != nil {
		t.Fatal(err)
	}
	defer event.PutCols(got)
	if !reflect.DeepEqual(colsRecs(got), b.Recs) {
		t.Fatal("frame round trip mismatch")
	}
}

// TestColumnarZeroAlloc pins the encoder's steady-state allocation
// budget: with a reused buffer, framing a full batch allocates nothing
// (TestColsDecodeZeroAlloc pins the decode side).
func TestColumnarZeroAlloc(t *testing.T) {
	src := &event.Batch{Recs: streamRecs(event.DefaultBatchSize)}
	buf := AppendBatchFrame(nil, Header{Session: 1}, src)
	if got := testing.AllocsPerRun(50, func() {
		buf = AppendBatchFrame(buf[:0], Header{Session: 1}, src)
	}); got != 0 {
		t.Errorf("columnar encode: %v allocs/run, want 0", got)
	}
}

// MaxColumnarBytesPerRecord is the committed regression threshold for the
// columnar codec on a locality-typical stream (CI fails if the encoding
// regresses above it). A record at fixed width costs RecSize (37) bytes;
// the columnar codec's budget is ≤ 7 — comfortably past the ≥4× reduction
// this transport promises, with headroom over the ~4.5 B/record the
// current encoder achieves so byte-level tweaks don't flake the gate.
const MaxColumnarBytesPerRecord = 7.0

func TestColumnarBytesPerRecordThreshold(t *testing.T) {
	recs := streamRecs(event.DefaultBatchSize)
	payload := AppendColumnar(nil, recs)
	got := float64(len(payload)) / float64(len(recs))
	t.Logf("columnar: %.2f bytes/record (fixed width: %d)", got, RecSize)
	if got > MaxColumnarBytesPerRecord {
		t.Fatalf("columnar codec regressed to %.2f bytes/record on the locality stream, budget %.1f",
			got, MaxColumnarBytesPerRecord)
	}
	if ratio := float64(RecSize) / got; ratio < 4 {
		t.Fatalf("compression vs fixed width is %.1fx, want >= 4x", ratio)
	}
}

// TestColumnarRejectsMalformed drives DecodeColumnarCols, the server's
// decode entry point, over targeted corruptions: each must fail with the
// malformed-payload error and hand back no batch.
func TestColumnarRejectsMalformed(t *testing.T) {
	recs := streamRecs(32)
	payload := AppendColumnar(nil, recs)
	reject := func(t *testing.T, bad []byte) {
		t.Helper()
		c, err := DecodeColumnarCols(bad)
		if !errors.Is(err, errColumnar) {
			t.Fatalf("err = %v, want a malformed-payload error", err)
		}
		if c != nil {
			t.Fatal("failed decode handed back a batch")
		}
	}
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(payload); cut++ {
			reject(t, payload[:cut])
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		reject(t, append(append([]byte{}, payload...), 0))
	})
	t.Run("lying-count", func(t *testing.T) {
		// 2^40 records in a short payload: rejected before any column
		// is sized from the count.
		reject(t, appendUvarint(nil, 1<<40))
	})
	t.Run("bad-op", func(t *testing.T) {
		bad := AppendColumnar(nil, recs[:1])
		bad[1] = byte(MaxOp) + 1 // the op byte after the 1-byte count
		reject(t, bad)
	})
	t.Run("run-overflow", func(t *testing.T) {
		reject(t, []byte{1, byte(event.OpRead), 2}) // count 1, op run 2
	})
}

// TestColsDecodeRejectsMalformedAndRewinds drives the decoder over
// targeted corruptions with a pre-seeded batch: none may decode, none may
// panic, and every failure must rewind to the entry length so a pooled
// Cols is never recycled with partial records in it.
func TestColsDecodeRejectsMalformedAndRewinds(t *testing.T) {
	recs := streamRecs(32)
	payload := AppendColumnar(nil, recs)
	sentinel := event.Rec{Op: event.OpWrite, Tid: 9, Addr: 0x999, Size: 1, Seq: 99}
	check := func(t *testing.T, bad []byte) {
		t.Helper()
		c := &event.Cols{}
		c.Append(sentinel)
		if err := DecodeColumnarColsInto(bad, c); !errors.Is(err, errColumnar) {
			t.Fatalf("err = %v, want a malformed-payload error", err)
		}
		if c.Len() != 1 || c.Rec(0) != sentinel {
			t.Fatalf("failed decode did not rewind: len %d", c.Len())
		}
	}
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(payload); cut++ {
			check(t, payload[:cut])
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		check(t, append(append([]byte{}, payload...), 0))
	})
	t.Run("lying-count", func(t *testing.T) {
		check(t, appendUvarint(nil, 1<<40))
	})
	t.Run("count-mismatch", func(t *testing.T) {
		// Claim 7 records over the column sections of 32: the op run
		// lengths no longer cover the count.
		check(t, append(appendUvarint(nil, 7), payload[1:]...))
	})
	t.Run("bad-op", func(t *testing.T) {
		bad := AppendColumnar(nil, recs[:1])
		bad[1] = byte(MaxOp) + 1
		check(t, bad)
	})
	t.Run("run-overflow", func(t *testing.T) {
		check(t, []byte{1, byte(event.OpRead), 2})
	})
	t.Run("size-overflow", func(t *testing.T) {
		r := []event.Rec{{Op: event.OpRead, Tid: 1, Addr: 8, Size: 4, Seq: 1}}
		good := AppendColumnar(nil, r)
		// Re-encode by hand with a 2^40 size.
		bad := appendUvarint(nil, 1)
		bad = append(bad, byte(event.OpRead))
		bad = appendUvarint(bad, 1)         // op run
		bad = appendUvarint(bad, zigzag(1)) // tid
		bad = appendUvarint(bad, 1)         // tid run
		bad = appendUvarint(bad, zigzag(8)) // addr delta
		bad = appendUvarint(bad, 1<<40)     // size: overflows uint32
		bad = appendUvarint(bad, zigzag(0)) // pc delta
		bad = appendUvarint(bad, zigzag(0)) // aux delta
		bad = appendUvarint(bad, zigzag(1)) // seq delta
		if len(bad) <= len(good) {
			t.Fatal("hand-built payload suspiciously short")
		}
		check(t, bad)
	})
	// Malformed varints where the decoder reads a multi-byte value. An
	// overlong one is planted once in the addr column with at least
	// maxVarintLen bytes still to go (the unrolled read) and once ending
	// the payload in the seq column (it still starts maxVarintLen or more
	// bytes before the end, so the unrolled read hands it to the checked
	// loop to be named). A cut varint can only end the payload, fewer than
	// maxVarintLen bytes before its end, so it is tested in the checked
	// tail only.
	long11 := append(bytes.Repeat([]byte{0x80}, 10), 0x01) // 11 bytes
	tenth := append(bytes.Repeat([]byte{0xff}, 9), 0x02)   // 10th byte above 1
	for _, tc := range []struct {
		name      string
		addr, seq []byte
	}{
		{"11-byte-varint/unrolled", long11, []byte{2}},
		{"10th-byte-above-1/unrolled", tenth, []byte{2}},
		{"11-byte-varint/tail", []byte{0x10}, long11},
		{"10th-byte-above-1/tail", []byte{0x10}, tenth},
		{"cut-varint/tail", []byte{0x10}, []byte{0xff, 0xff}},
		{"cut-9-byte-varint/tail", []byte{0x10}, bytes.Repeat([]byte{0xff}, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := varintPayload(tc.addr, tc.seq)
			if strings.HasSuffix(tc.name, "/unrolled") && len(bad)-varintPayloadAddrOff < maxVarintLen {
				t.Fatalf("planted varint starts %d bytes before the end, want >= %d", len(bad)-varintPayloadAddrOff, maxVarintLen)
			}
			check(t, bad)
		})
	}
}

// varintPayloadAddrOff is where varintPayload plants its addr bytes.
const varintPayloadAddrOff = 5

// varintPayload hand-builds a one-record payload whose addr and seq
// columns hold the given raw bytes, so a test can plant encodings the
// encoder never emits. The other columns are valid single bytes.
func varintPayload(addr, seq []byte) []byte {
	p := []byte{1, byte(event.OpRead), 1, 0, 1} // count, op run, tid run
	p = append(p, addr...)
	p = append(p, 8, 0, 0) // size, pc delta, aux delta
	return append(p, seq...)
}

// TestDecodeErrorPathsReturnPooledBatches is the pool-leak regression:
// DecodeColumnarCols takes a batch from the pool on every call and must
// return it on every error exit. An injected stream of truncated and
// corrupt payloads must leave gets == puts — a leak here slowly bleeds
// the server's batch pool under a misbehaving client.
func TestDecodeErrorPathsReturnPooledBatches(t *testing.T) {
	recs := streamRecs(64)
	columnar := AppendColumnar(nil, recs)
	badOp := AppendColumnar(nil, recs)
	badOp[1] = byte(MaxOp) + 1 // the first op byte after the 1-byte count

	_, _, cg0, cp0 := event.PoolCounts()
	for cut := 0; cut < len(columnar); cut += 7 {
		if _, err := DecodeColumnarCols(columnar[:cut]); err == nil {
			t.Fatalf("truncated columnar payload (%d bytes) accepted", cut)
		}
	}
	if _, err := DecodeColumnarCols(badOp); err == nil {
		t.Fatal("payload with unknown op accepted")
	}
	_, _, cg1, cp1 := event.PoolCounts()
	if cg1-cg0 != cp1-cp0 {
		t.Errorf("cols pool leak: %d gets vs %d puts across error paths", cg1-cg0, cp1-cp0)
	}

	// A successful decode balances too once the caller returns the batch.
	c, err := DecodeColumnarCols(columnar)
	if err != nil {
		t.Fatal(err)
	}
	event.PutCols(c)
	_, _, cg2, cp2 := event.PoolCounts()
	if cg2-cg0 != cp2-cp0 {
		t.Errorf("pool imbalance after a successful decode: cols %d/%d", cg2-cg0, cp2-cp0)
	}
}

// TestColsDecodeZeroAlloc pins the ingest hot path: decoding a full
// columnar payload into a warm pooled Cols allocates nothing.
func TestColsDecodeZeroAlloc(t *testing.T) {
	payload := AppendColumnar(nil, streamRecs(event.DefaultBatchSize))
	c := event.GetCols()
	defer event.PutCols(c)
	if err := DecodeColumnarColsInto(payload, c); err != nil { // warm capacity
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		c.Reset()
		if err := DecodeColumnarColsInto(payload, c); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("cols decode allocates %.1f per batch, want 0", avg)
	}
}
