package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/vc"
)

// recsFromBytes deterministically derives a record batch from fuzz input:
// every 20-byte chunk becomes one record with a valid op. This gives the
// round-trip side of the fuzz target structured inputs without needing a
// custom corpus format.
func recsFromBytes(data []byte) []event.Rec {
	var recs []event.Rec
	for len(data) >= 20 {
		c := data[:20]
		data = data[20:]
		recs = append(recs, event.Rec{
			Op:  event.Op(c[0] % uint8(MaxOp+1)),
			Tid: vc.TID(binary.LittleEndian.Uint16(c[1:])),
			Size: uint32(binary.LittleEndian.Uint16(c[3:5])) |
				uint32(c[5])<<16, // exercise >16-bit sizes too
			PC:   event.PC(binary.LittleEndian.Uint16(c[6:8])),
			Addr: binary.LittleEndian.Uint64(c[8:16]),
			Aux:  uint64(binary.LittleEndian.Uint16(c[16:18])),
			Seq:  uint64(binary.LittleEndian.Uint16(c[18:20])),
		})
	}
	return recs
}

// FuzzWireRoundTrip asserts two properties over arbitrary input:
//
//  1. Round trip: a batch derived from the input encodes to a frame that
//     decodes back to exactly the same records — including the arbitrary
//     field extremes the input derives, so the wraparound delta arithmetic
//     must hold for any record, not just realistic streams — and
//     truncating the frame or its payload, or corrupting any byte of the
//     frame, is rejected (never mis-decoded).
//  2. Robustness: feeding the raw input directly to the frame reader and
//     the batch decoder never panics and never over-allocates past the
//     frame limit, whatever the bytes say; a rejected decode leaves no
//     partial records behind.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	f.Add(AppendBatchFrame(nil, Header{Session: 1, Seq: 1},
		&event.Batch{Recs: []event.Rec{{Op: event.OpWrite, Addr: 0x1000, Size: 4, Seq: 1}}}))
	f.Add(tracedFrame(Header{Session: 2, Seq: 2},
		[]event.Rec{{Op: event.OpRead, Addr: 0x2000, Size: 8, Seq: 1}}, 7, 9))
	// Go-native sync ops, so the corpus reaches the top of the op range
	// from the start.
	f.Add(AppendBatchFrame(nil, Header{Session: 3, Seq: 1}, &event.Batch{Recs: []event.Rec{
		{Op: event.OpChanSend, Tid: 1, Aux: 4, Seq: 1},
		{Op: event.OpChanRecv, Tid: 2, Aux: 4, Seq: 2},
		{Op: event.OpChanAck, Tid: 1, Aux: 4, Seq: 3},
	}}))
	f.Add(AppendBatchFrame(nil, Header{Session: 4, Seq: 1}, &event.Batch{Recs: []event.Rec{
		{Op: event.OpWGAdd, Tid: 0, Aux: 1, Size: 2, Seq: 1},
		{Op: event.OpWGDone, Tid: 1, Aux: 1, Seq: 2},
		{Op: event.OpWGWait, Tid: 0, Aux: 1, Seq: 3},
	}}))
	// Decoder edge seeds: a payload truncated mid-column, an oversized
	// count prefix, and a count that disagrees with the column sections —
	// the mutation engine starts at the decoder's error edges instead of
	// having to find them.
	colSeed := AppendColumnar(nil, []event.Rec{
		{Op: event.OpRead, Tid: 1, Addr: 0x1000, Size: 8, PC: 3, Seq: 1},
		{Op: event.OpWrite, Tid: 1, Addr: 0x1008, Size: 8, PC: 3, Seq: 2},
	})
	f.Add(colSeed[:len(colSeed)/2])                      // truncated column section
	f.Add(appendUvarint(nil, 1<<40))                     // count prefix exceeds payload
	f.Add(append(appendUvarint(nil, 7), colSeed[1:]...)) // count vs column-section mismatch
	f.Add(append(append([]byte{}, colSeed...), 0, 0, 0)) // oversized: trailing bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: encode→frame→decode is the identity.
		recs := recsFromBytes(data)
		b := &event.Batch{Recs: recs}
		frame := AppendBatchFrame(nil, Header{Session: 99, Seq: 7}, b)
		h, payload, err := NewReader(bytes.NewReader(frame), 0).ReadFrame()
		if err != nil {
			t.Fatalf("own frame rejected: %v", err)
		}
		if h.Type != TypeBatch || h.Session != 99 || h.Seq != 7 {
			t.Fatalf("header mangled: %+v", h)
		}
		got, err := DecodeColumnarCols(payload)
		if err != nil {
			t.Fatalf("own payload rejected: %v", err)
		}
		if got.Len() != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(colsRecs(got), recs)) {
			t.Fatalf("round trip mismatch: %d vs %d recs", got.Len(), len(recs))
		}
		event.PutCols(got)

		// Truncations must never decode successfully, at the frame layer
		// or inside the payload.
		cut := len(frame) - 1 - int(uint(len(data))%uint(len(frame)))
		if _, _, err := NewReader(bytes.NewReader(frame[:cut]), 0).ReadFrame(); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(frame))
		}
		if len(recs) > 0 {
			pcut := int(uint(len(data)) % uint(len(payload)))
			var tc event.Cols
			if err := DecodeColumnarColsInto(payload[:pcut], &tc); err == nil {
				t.Fatalf("truncated payload (%d of %d bytes) accepted", pcut, len(payload))
			}
		}
		// Single-byte corruption must be rejected (magic, CRC, or length
		// check — never a silent mis-decode into different records).
		if len(data) > 0 {
			pos := int(uint(data[0])) % len(frame)
			mut := append([]byte(nil), frame...)
			mut[pos] ^= 1 + data[len(data)-1]%255
			_, mp, err := NewReader(bytes.NewReader(mut), uint32(len(frame))).ReadFrame()
			if err == nil {
				// The flipped byte must have been in the header's
				// non-integrity-checked fields (type/flags/shard/
				// session/seq) — the payload itself is CRC-protected.
				if mc, derr := DecodeColumnarCols(mp); derr == nil {
					if mc.Len() != len(recs) ||
						(len(recs) > 0 && !reflect.DeepEqual(colsRecs(mc), recs)) {
						t.Fatalf("corruption at byte %d silently changed the decoded records", pos)
					}
					event.PutCols(mc)
				}
			}
		}

		// Property 2: arbitrary bytes never panic the reader/decoder.
		rd := NewReader(bytes.NewReader(data), 4096)
		for {
			_, p, err := rd.ReadFrame()
			if err != nil {
				break
			}
			if c, err := DecodeColumnarCols(p); err == nil {
				event.PutCols(c)
			}
		}
		dc := event.GetCols()
		if err := DecodeColumnarColsInto(data, dc); err != nil && dc.Len() != 0 {
			t.Fatalf("failed decode left %d partial records", dc.Len())
		}
		event.PutCols(dc)
	})
}
