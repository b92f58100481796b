package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
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
		if err := DecodeColumnarColsInto(bad, c); err == nil {
			t.Fatal("malformed payload accepted")
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
