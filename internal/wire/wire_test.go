package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/vc"
)

// randRecs builds a deterministic pseudo-random record batch.
func randRecs(n int, seed int64) []event.Rec {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]event.Rec, n)
	for i := range recs {
		recs[i] = event.Rec{
			Op:   event.Op(rng.Intn(int(MaxOp) + 1)),
			Tid:  vc.TID(rng.Int31()),
			Addr: rng.Uint64(),
			Aux:  rng.Uint64(),
			Seq:  rng.Uint64(),
			Size: rng.Uint32(),
			PC:   event.PC(rng.Uint32()),
		}
	}
	return recs
}

// colsRecs returns the records of c in order.
func colsRecs(c *event.Cols) []event.Rec {
	recs := make([]event.Rec, c.Len())
	for i := range recs {
		recs[i] = c.Rec(i)
	}
	return recs
}

func TestBatchFrameRoundTrip(t *testing.T) {
	b := &event.Batch{Recs: randRecs(striped, 2)}
	h := Header{Session: 7, Seq: 42, Shard: 3}
	frame := AppendBatchFrame(nil, h, b)
	rd := NewReader(bytes.NewReader(frame), 0)
	gh, payload, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if gh.Type != TypeBatch || gh.Session != 7 || gh.Seq != 42 || gh.Shard != 3 {
		t.Fatalf("header round trip: %+v", gh)
	}
	got, err := DecodeColumnarCols(payload)
	if err != nil {
		t.Fatal(err)
	}
	defer event.PutCols(got)
	if !reflect.DeepEqual(colsRecs(got), b.Recs) {
		t.Fatal("decoded batch differs from encoded batch")
	}
	// The stream must end on a clean frame boundary.
	if _, _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

const striped = 257 // a batch size that exercises non-power-of-two paths

func TestControlFrameRoundTrip(t *testing.T) {
	hello := Hello{
		Version: Version, Granularity: 2, Workers: 4, Window: 16,
		NoInitState: true, ReshareInterval: 9,
	}
	frame, err := AppendControlFrame(nil, Header{Type: TypeHello}, hello)
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := NewReader(bytes.NewReader(frame), 0).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeHello {
		t.Fatalf("type %v", h.Type)
	}
	var got Hello
	if err := UnmarshalControl(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != hello {
		t.Fatalf("hello round trip: got %+v want %+v", got, hello)
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	b := &event.Batch{Recs: randRecs(8, 3)}
	frame := AppendBatchFrame(nil, Header{Seq: 1}, b)

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[0] ^= 0xff
		_, _, err := NewReader(bytes.NewReader(bad), 0).ReadFrame()
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("payload-corruption", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[HeaderSize+5] ^= 0x01
		_, _, err := NewReader(bytes.NewReader(bad), 0).ReadFrame()
		if !errors.Is(err, ErrCRC) {
			t.Fatalf("want ErrCRC, got %v", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		_, _, err := NewReader(bytes.NewReader(frame[:HeaderSize-3]), 0).ReadFrame()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("want ErrUnexpectedEOF, got %v", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		_, _, err := NewReader(bytes.NewReader(frame[:len(frame)-10]), 0).ReadFrame()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("want ErrUnexpectedEOF, got %v", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		_, _, err := NewReader(bytes.NewReader(frame), uint32(len(frame)-HeaderSize-1)).ReadFrame()
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("want ErrTooLarge, got %v", err)
		}
	})
	t.Run("ragged-batch-payload", func(t *testing.T) {
		// A CRC-valid frame whose payload stops one byte short of its last
		// column.
		full := AppendColumnar(nil, b.Recs)
		ragged := AppendFrame(nil, Header{Type: TypeBatch, Seq: 1}, full[:len(full)-1])
		_, payload, err := NewReader(bytes.NewReader(ragged), 0).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeColumnarCols(payload); err == nil {
			t.Fatal("ragged payload accepted")
		}
	})
	t.Run("unknown-op", func(t *testing.T) {
		payload := AppendColumnar(nil, b.Recs[:1])
		payload[1] = byte(MaxOp) + 1 // the op byte after the 1-byte count
		framed := AppendFrame(nil, Header{Type: TypeBatch, Seq: 1}, payload)
		_, p, err := NewReader(bytes.NewReader(framed), 0).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeColumnarCols(p); err == nil {
			t.Fatal("unknown op accepted")
		}
	})
}

func TestReportConversionRoundTrip(t *testing.T) {
	rep := Report{
		Events: 1234,
		Races: []ReportRace{
			{Kind: 1, Addr: 0x1000, Size: 4, Tid: 2, PC: 0x33, PrevTid: 1, PrevPC: 0x44},
			{Kind: 3, Addr: 0x2000, Size: 1, Tid: 5, PC: 0x55, PrevTid: 0, PrevPC: 0x66},
		},
	}
	rep.Stats = ReportStats{
		Accesses: 10, SameEpoch: 5, NonShared: 2, TotalPeakBytes: 4096,
		Races: 2, NodesPeak: 7, AvgSharing: 3.5, Merges: 4, Splits: 1,
	}
	races := rep.DetectorRaces()
	st := rep.DetectorStats()
	if len(races) != 2 || races[0].Addr != 0x1000 || races[1].Kind != 3 {
		t.Fatalf("races conversion: %+v", races)
	}
	if st.Accesses != 10 || st.Plane.NodesPeak != 7 || st.Plane.AvgSharing() != 3.5 {
		t.Fatalf("stats conversion: %+v", st)
	}
	// JSON transit must preserve everything.
	payload, err := MarshalControl(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := UnmarshalControl(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("report JSON round trip:\ngot  %+v\nwant %+v", got, rep)
	}
}

// TestEncoderToWire checks the full client-side encode path: Sink calls →
// Encoder batches → frames → decode → replay equals the original stream.
func TestEncoderToWire(t *testing.T) {
	var frames [][]byte
	var seq uint64
	enc := event.Encoder{Flush: func(b *event.Batch) {
		seq++
		frames = append(frames, AppendBatchFrame(nil, Header{Seq: seq}, b))
		event.PutBatch(b)
	}}
	var want event.Counter
	drive := func(s event.Sink) {
		for i := 0; i < 5000; i++ {
			tid := vc.TID(i % 3)
			s.Write(tid, uint64(0x1000+i), 4, event.MakePC(event.ModuleApp, uint32(i)))
			if i%7 == 0 {
				s.Acquire(tid, event.LockID(i%5))
				s.Read(tid, uint64(0x1000+i), 2, 0)
				s.Release(tid, event.LockID(i%5))
			}
		}
	}
	drive(event.Tee{&want, &enc})
	enc.Close()
	if len(frames) < 2 {
		t.Fatalf("expected multiple frames, got %d", len(frames))
	}

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
		t.Fatalf("replayed stream differs:\ngot  %+v\nwant %+v", got, want)
	}
}
