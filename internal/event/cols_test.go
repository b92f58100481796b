package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vc"
)

// randRecs builds a deterministic mixed stream of accesses and sync events
// with runs of repeated accesses, as tight loops produce.
func randRecs(n int, seed int64) []Rec {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Rec, 0, n)
	seq := uint64(0)
	for len(recs) < n {
		seq++
		switch rng.Intn(10) {
		case 0:
			recs = append(recs, Rec{Op: OpAcquire, Tid: vc.TID(rng.Intn(4)), Aux: uint64(rng.Intn(3)), Seq: seq})
		case 1:
			recs = append(recs, Rec{Op: OpRelease, Tid: vc.TID(rng.Intn(4)), Aux: uint64(rng.Intn(3)), Seq: seq})
		case 2:
			recs = append(recs, Rec{Op: OpFork, Tid: 0, Aux: uint64(1 + rng.Intn(3)), Seq: seq})
		default:
			r := Rec{
				Op:   OpRead + Op(rng.Intn(2)),
				Tid:  vc.TID(rng.Intn(4)),
				Addr: uint64(0x1000 + 8*rng.Intn(64)),
				Size: []uint32{1, 4, 8}[rng.Intn(3)],
				PC:   PC(rng.Intn(16)),
				Seq:  seq,
			}
			// Emit a run of identical accesses half the time.
			for k := rng.Intn(4); k >= 0 && len(recs) < n; k-- {
				r.Seq = seq
				recs = append(recs, r)
				if k > 0 {
					seq++
				}
			}
		}
	}
	return recs
}

func TestColsAppendRecRoundTrip(t *testing.T) {
	recs := randRecs(300, 1)
	c := &Cols{}
	for _, r := range recs {
		c.Append(r)
	}
	if c.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(recs))
	}
	for i, want := range recs {
		if got := c.Rec(i); got != want {
			t.Fatalf("Rec(%d) = %+v, want %+v", i, got, want)
		}
	}
	c.Truncate(10)
	if c.Len() != 10 || c.Rec(9) != recs[9] {
		t.Fatalf("Truncate(10): Len = %d, Rec(9) = %+v", c.Len(), c.Rec(9))
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Reset: Len = %d, want 0", c.Len())
	}
}

// opLog records the full call sequence of a Sink so the columnar apply can
// be compared call-for-call against the record-major one.
type opLog struct {
	Nop
	log []string
}

func (l *opLog) add(f string, a ...any) { l.log = append(l.log, fmt.Sprintf(f, a...)) }

func (l *opLog) Read(tid vc.TID, addr uint64, size uint32, pc PC) {
	l.add("r %d %#x+%d@%d", tid, addr, size, pc)
}
func (l *opLog) Write(tid vc.TID, addr uint64, size uint32, pc PC) {
	l.add("w %d %#x+%d@%d", tid, addr, size, pc)
}
func (l *opLog) Acquire(tid vc.TID, lk LockID) { l.add("acq %d %d", tid, lk) }
func (l *opLog) Release(tid vc.TID, lk LockID) { l.add("rel %d %d", tid, lk) }
func (l *opLog) Fork(p, c vc.TID)              { l.add("fork %d->%d", p, c) }

// TestColsApplyMatchesRecordApply pins Cols.Apply: it must produce the
// identical call sequence as applying each materialized Rec in order.
func TestColsApplyMatchesRecordApply(t *testing.T) {
	recs := randRecs(500, 2)
	c := &Cols{}
	for _, r := range recs {
		c.Append(r)
	}
	var want opLog
	for i := range recs {
		ApplyRec(&want, &recs[i])
	}
	var got opLog
	if last := c.Apply(&got); last != recs[len(recs)-1].Seq {
		t.Fatalf("Apply returned seq %d, want %d", last, recs[len(recs)-1].Seq)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		t.Fatalf("columnar apply diverged from record apply:\nwant %v\ngot  %v", want.log, got.log)
	}
}

func TestColsPoolCounts(t *testing.T) {
	g0, p0, cg0, cp0 := PoolCounts()
	c := GetCols()
	c.Append(Rec{Op: OpRead, Addr: 0x10, Size: 4})
	PutCols(c)
	b := GetBatch()
	PutBatch(b)
	g1, p1, cg1, cp1 := PoolCounts()
	if g1-g0 != 1 || p1-p0 != 1 || cg1-cg0 != 1 || cp1-cp0 != 1 {
		t.Fatalf("pool deltas = batch %d/%d cols %d/%d, want 1/1 1/1",
			g1-g0, p1-p0, cg1-cg0, cp1-cp0)
	}
	if c2 := GetCols(); c2.Len() != 0 {
		t.Fatalf("pooled Cols not reset: Len = %d", c2.Len())
	}
}

// TestColsAppendZeroAlloc pins the pooled append path: within the default
// capacity, building a columnar batch allocates nothing.
func TestColsAppendZeroAlloc(t *testing.T) {
	c := GetCols()
	defer PutCols(c)
	r := Rec{Op: OpWrite, Tid: 1, Addr: 0x1000, Size: 8, Seq: 1}
	if avg := testing.AllocsPerRun(100, func() {
		c.Reset()
		for i := 0; i < DefaultBatchSize; i++ {
			c.Append(r)
		}
	}); avg != 0 {
		t.Fatalf("Cols.Append allocates %.1f per batch within capacity, want 0", avg)
	}
}
