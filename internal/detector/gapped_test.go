package detector

import (
	"testing"

	"repro/internal/dyngran"
)

// gappedWritePlane builds a gapped write node with a foreign node in its
// gap. Thread 0 writes [0x1000,0x1004) and [0x1008,0x100c) in one epoch,
// so first-epoch sharing merges them across the unaccessed gap into outer
// = [0x1000,0x100c). After a fork, thread 1 writes the gap [0x1004,0x1008)
// and gets a node of its own (its clock differs): foreign, inside outer's
// range.
func gappedWritePlane(t *testing.T) (d *Detector, outer, foreign *dyngran.Node) {
	t.Helper()
	d = dyn()
	d.Write(0, 0x1000, 4, 1)
	d.Write(0, 0x1008, 4, 1)
	d.Fork(0, 1)
	d.Write(1, 0x1004, 4, 2)
	outer, foreign = d.write.Tab.Get(0x1000), d.write.Tab.Get(0x1004)
	if outer == nil || foreign == nil || outer == foreign ||
		outer.Lo != 0x1000 || outer.Hi != 0x100c || d.write.Tab.Get(0x1008) != outer {
		t.Fatal("gapped-node precondition not established")
	}
	return d, outer, foreign
}

// TestSegmentsStopAtForeignSlot: a segment walk that starts in a gapped node and
// runs into its gap must hand the gap's slots to the node that owns them.
func TestSegmentsStopAtForeignSlot(t *testing.T) {
	d, outer, foreign := gappedWritePlane(t)
	type seg struct {
		lo, hi uint64
		n      *dyngran.Node
	}
	var got []seg
	for lo := uint64(0x1000); lo < 0x100c; {
		n, hi := segment(d.write, lo, 0x100c)
		got = append(got, seg{lo, hi, n})
		lo = hi
	}
	want := []seg{{0x1000, 0x1004, outer}, {0x1004, 0x1008, foreign}, {0x1008, 0x100c, outer}}
	if len(got) != len(want) {
		t.Fatalf("segments %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = [%#x,%#x) %p, want [%#x,%#x) %p",
				i, got[i].lo, got[i].hi, got[i].n, want[i].lo, want[i].hi, want[i].n)
		}
	}

	// End to end: thread 0's write over outer's first run and the gap
	// races with thread 1's write of the gap, which is not ordered
	// before it.
	d.Write(0, 0x1000, 8, 3)
	if races := d.Races(); len(races) != 1 || races[0].Addr != 0x1004 || races[0].PrevTid != 1 {
		t.Fatalf("races %v, want one write-write race at 0x1004 against thread 1", races)
	}
}

// TestMarkSharedSkipsForeignSlots: extending the same-epoch bitmap over a
// shared node must not cover another node's slots inside its range, or a
// later access to that node in the same epoch would skip its check.
func TestMarkSharedSkipsForeignSlots(t *testing.T) {
	d, outer, _ := gappedWritePlane(t)
	bm := d.bitmap(0)
	bm.Reset()
	d.markShared(d.write, outer, bm)
	if bm.Write(0x1004, 0x1008) {
		t.Fatal("foreign slots [0x1004,0x1008) were marked as written this epoch")
	}
	if !bm.Write(0x1000, 0x1004) || !bm.Write(0x1008, 0x100c) {
		t.Fatal("the node's own slots must be marked")
	}
}
