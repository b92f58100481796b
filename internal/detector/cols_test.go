package detector

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/vc"
)

// colsStream builds a deterministic racy event stream with heavy run
// structure: threads loop over a few granules between sync events, so
// most repeats take the same-epoch fast path.
func colsStream(n int, seed int64) *event.Cols {
	rng := rand.New(rand.NewSource(seed))
	c := &event.Cols{}
	seq := uint64(0)
	add := func(r event.Rec) {
		seq++
		r.Seq = seq
		c.Append(r)
	}
	add(event.Rec{Op: event.OpFork, Tid: 0, Aux: 1})
	add(event.Rec{Op: event.OpFork, Tid: 0, Aux: 2})
	for c.Len() < n {
		tid := vc.TID(rng.Intn(3))
		switch rng.Intn(8) {
		case 0:
			add(event.Rec{Op: event.OpAcquire, Tid: tid, Aux: uint64(rng.Intn(2))})
		case 1:
			add(event.Rec{Op: event.OpRelease, Tid: tid, Aux: uint64(rng.Intn(2))})
		default:
			op := event.OpRead + event.Op(rng.Intn(2))
			addr := uint64(0x1000 + 8*rng.Intn(8))
			size := []uint32{1, 4, 8}[rng.Intn(3)]
			// Emit a run: the same access repeated, as tight loops produce.
			for k := rng.Intn(6); k >= 0 && c.Len() < n; k-- {
				add(event.Rec{Op: op, Tid: tid, Addr: addr, Size: size, PC: event.PC(rng.Intn(4))})
			}
		}
	}
	return c
}

// TestApplyColsMatchesRecordApply pins the columnar apply to the
// record-at-a-time one: same races, same Stats (Accesses, SameEpoch,
// NonShared).
func TestApplyColsMatchesRecordApply(t *testing.T) {
	for _, g := range []Granularity{Byte, Word, Dynamic} {
		for seed := int64(1); seed <= 3; seed++ {
			c := colsStream(4000, seed)
			rec := New(Config{Granularity: g})
			for i := 0; i < c.Len(); i++ {
				r := c.Rec(i)
				event.ApplyRec(rec, &r)
			}
			col := New(Config{Granularity: g})
			col.ApplyCols(c)
			if !reflect.DeepEqual(rec.Races(), col.Races()) {
				t.Fatalf("g=%v seed=%d: race sets differ:\nrecord %v\ncols   %v",
					g, seed, rec.Races(), col.Races())
			}
			rs, cs := rec.Stats(), col.Stats()
			if rs.Accesses != cs.Accesses || rs.SameEpoch != cs.SameEpoch || rs.NonShared != cs.NonShared {
				t.Fatalf("g=%v seed=%d: stats differ: record acc=%d same=%d ns=%d, cols acc=%d same=%d ns=%d",
					g, seed, rs.Accesses, rs.SameEpoch, rs.NonShared,
					cs.Accesses, cs.SameEpoch, cs.NonShared)
			}
		}
	}
}

// TestApplyColsNonSharedRuns checks a run of non-shared accesses lands in
// Stats.NonShared, not Accesses/SameEpoch: the columnar apply must respect
// the detector's first-line stack filter.
func TestApplyColsNonSharedRuns(t *testing.T) {
	c := &event.Cols{}
	for i := 0; i < 5; i++ {
		c.Append(event.Rec{Op: event.OpRead, Tid: 0, Addr: event.StackBase + 0x40, Size: 8, Seq: uint64(i + 1)})
	}
	d := New(Config{Granularity: Dynamic})
	d.ApplyCols(c)
	st := d.Stats()
	if st.NonShared != 5 || st.Accesses != 0 || st.SameEpoch != 0 {
		t.Fatalf("non-shared run miscounted: acc=%d same=%d ns=%d, want 0/0/5",
			st.Accesses, st.SameEpoch, st.NonShared)
	}
}

// TestApplyColsZeroAllocSteadyState pins the columnar batch apply's
// steady-state allocation budget: once the shadow plane for the touched
// granules exists, re-applying an access batch allocates nothing.
func TestApplyColsZeroAllocSteadyState(t *testing.T) {
	c := &event.Cols{}
	for i := 0; i < 256; i++ {
		c.Append(event.Rec{
			Op: event.OpRead, Tid: 0, Addr: uint64(0x1000 + 8*(i%16)), Size: 8, Seq: uint64(i + 1),
		})
	}
	d := New(Config{Granularity: Dynamic})
	d.ApplyCols(c) // warm the shadow plane
	if avg := testing.AllocsPerRun(50, func() {
		d.ApplyCols(c)
	}); avg != 0 {
		t.Fatalf("steady-state ApplyCols allocates %.1f per batch, want 0", avg)
	}
}
