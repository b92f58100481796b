package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/vc"
)

// syncRecs is one record of each Go-native sync op, using the Rec field
// conventions event.Encoder emits (channel id / WaitGroup id in Aux,
// capacity / add-delta in Size).
func syncRecs() []event.Rec {
	return []event.Rec{
		{Op: event.OpChanSend, Tid: 1, Aux: 3, Size: 0, Seq: 1},
		{Op: event.OpChanRecv, Tid: 2, Aux: 3, Size: 0, Seq: 2},
		{Op: event.OpChanAck, Tid: 1, Aux: 3, Size: 0, Seq: 3},
		{Op: event.OpChanSend, Tid: 2, Aux: 7, Size: 16, Seq: 4},
		{Op: event.OpChanRecv, Tid: 1, Aux: 7, Size: 16, Seq: 5},
		{Op: event.OpWGAdd, Tid: 0, Aux: 2, Size: 4, Seq: 6},
		{Op: event.OpWGDone, Tid: 3, Aux: 2, Seq: 7},
		{Op: event.OpWGWait, Tid: 0, Aux: 2, Seq: 8},
	}
}

// TestSyncOpsRoundTrip pins that the Go-native sync ops survive a Batch
// frame record for record.
func TestSyncOpsRoundTrip(t *testing.T) {
	recs := syncRecs()
	got, err := DecodeColumnarCols(AppendBatchFrame(nil, Header{Seq: 1}, &event.Batch{Recs: recs})[HeaderSize:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	defer event.PutCols(got)
	if !reflect.DeepEqual(colsRecs(got), recs) {
		t.Fatal("round trip of sync ops mismatch")
	}
}

// TestSyncOpsAboveOldCeiling pins the compatibility story for pre-clock
// peers: every Go-native sync op is numerically above OpFree, the previous
// MaxOp, so an old decoder's `op > MaxOp` check rejects frames carrying
// them instead of misapplying records.
func TestSyncOpsAboveOldCeiling(t *testing.T) {
	const oldMaxOp = event.OpFree
	for _, op := range []event.Op{
		event.OpChanSend, event.OpChanRecv, event.OpChanAck,
		event.OpWGAdd, event.OpWGDone, event.OpWGWait,
	} {
		if op <= oldMaxOp {
			t.Errorf("op %v (%d) is not above the pre-clock ceiling %d — old decoders would misapply it", op, op, oldMaxOp)
		}
	}
	if MaxOp != event.OpWGWait {
		t.Errorf("MaxOp = %d, want OpWGWait (%d)", MaxOp, event.OpWGWait)
	}
	// And the current decoder still rejects the next op beyond the new
	// ceiling.
	bad := AppendColumnar(nil, []event.Rec{{Op: event.OpChanSend}})
	bad[1] = byte(MaxOp) + 1
	var cb event.Cols
	if err := DecodeColumnarColsInto(bad, &cb); err == nil {
		t.Fatal("decoder accepted op beyond MaxOp")
	}
}

// TestEncoderSyncConventions drives the event.Encoder GoSink surface and
// checks the on-wire field conventions end to end: encode → frame → decode
// → ApplyRec replays the same sync calls into a counter.
func TestEncoderSyncConventions(t *testing.T) {
	var frames [][]byte
	enc := event.Encoder{Flush: func(b *event.Batch) {
		frames = append(frames, AppendBatchFrame(nil, Header{Seq: uint64(len(frames) + 1)}, b))
		event.PutBatch(b)
	}}
	var want event.Counter
	drive := func(s event.Sink) {
		event.DispatchChanSend(s, 1, 5, 0)
		event.DispatchChanRecv(s, 2, 5, 0)
		event.DispatchChanAck(s, 1, 5, 0)
		event.DispatchChanSend(s, 2, 9, 8)
		event.DispatchChanRecv(s, 3, 9, 8)
		event.DispatchWGAdd(s, 0, 1, 3)
		event.DispatchWGDone(s, vc.TID(2), 1)
		event.DispatchWGWait(s, 0, 1)
	}
	drive(event.Tee{&want, &enc})
	enc.Close()

	var got event.Counter
	for _, f := range frames {
		_, payload, err := NewReader(bytes.NewReader(f), 0).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeColumnarCols(payload)
		if err != nil {
			t.Fatal(err)
		}
		c.Apply(&got)
		event.PutCols(c)
	}
	if got != want {
		t.Fatalf("replayed sync stream differs:\ngot  %+v\nwant %+v", got, want)
	}
}
