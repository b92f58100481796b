package shadow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type node struct{ id int }

func TestGetEmpty(t *testing.T) {
	tab := New[*node]()
	if tab.Get(0x1234) != nil {
		t.Error("empty table must return nil")
	}
}

func TestSetRangeGet(t *testing.T) {
	tab := New[*node]()
	n := &node{1}
	tab.SetRange(0x100, 0x110, n)
	for a := uint64(0x100); a < 0x110; a++ {
		if tab.Get(a) != n {
			t.Fatalf("Get(%#x) missed", a)
		}
	}
	if tab.Get(0xff) != nil || tab.Get(0x110) != nil {
		t.Error("range bounds leaked")
	}
}

func TestReplaceRangeKeepsOtherValues(t *testing.T) {
	tab := New[*node]()
	old, other, v := &node{1}, &node{2}, &node{3}
	tab.SetRange(0x100, 0x108, old)
	tab.SetRange(0x10c, 0x110, other)
	tab.ReplaceRange(0x100, 0x118, old, v)
	for a := uint64(0x100); a < 0x118; a++ {
		want := v
		if a >= 0x10c && a < 0x110 {
			want = other
		}
		if got := tab.Get(a); got != want {
			t.Fatalf("Get(%#x) = %v, want %v", a, got, want)
		}
	}
	if tab.Get(0x118) != nil {
		t.Error("range bound leaked")
	}
}

// Figure 4: word-aligned ranges keep the sparse m/4 indexing array; an
// unaligned access expands it to m pointers with replication.
func TestFigure4Expansion(t *testing.T) {
	tab := New[*node]()
	n1 := &node{1}
	tab.SetRange(0x1000, 0x1004, n1)
	if exists, dense := tab.EntryDense(0x1000); !exists || dense {
		t.Fatalf("word-aligned range should stay sparse: exists=%v dense=%v", exists, dense)
	}
	sparseBytes := tab.Bytes()

	n2 := &node{2}
	tab.SetRange(0x1005, 0x1006, n2) // byte access
	if _, dense := tab.EntryDense(0x1000); !dense {
		t.Fatal("unaligned access must expand the entry")
	}
	if tab.Bytes() <= sparseBytes {
		t.Error("expansion must grow the accounted size")
	}
	// Replication: the word pointer must still resolve per byte.
	for a := uint64(0x1000); a < 0x1004; a++ {
		if tab.Get(a) != n1 {
			t.Fatalf("replicated lookup failed at %#x", a)
		}
	}
	if tab.Get(0x1005) != n2 {
		t.Error("byte slot lost")
	}
	if tab.Get(0x1004) != nil || tab.Get(0x1006) != nil {
		t.Error("expansion invented slots")
	}
}

func TestClearRangeRemovesEmptyEntries(t *testing.T) {
	tab := New[*node]()
	n := &node{1}
	tab.SetRange(0x200, 0x240, n)
	if tab.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", tab.Entries())
	}
	tab.ClearRange(0x200, 0x240)
	if tab.Entries() != 0 {
		t.Errorf("empty entry not removed: entries=%d", tab.Entries())
	}
	if tab.Get(0x210) != nil {
		t.Error("cleared slot still set")
	}
}

func TestClearRangePartial(t *testing.T) {
	tab := New[*node]()
	n := &node{1}
	tab.SetRange(0x300, 0x320, n)
	tab.ClearRange(0x308, 0x310)
	if tab.Get(0x300) != n || tab.Get(0x31f) != n {
		t.Error("untouched parts must remain")
	}
	if tab.Get(0x308) != nil || tab.Get(0x30f) != nil {
		t.Error("cleared middle must be empty")
	}
}

func TestRangesAcrossBlocks(t *testing.T) {
	tab := New[*node]()
	n := &node{1}
	lo := uint64(BlockSize - 8)
	hi := uint64(BlockSize + 8)
	tab.SetRange(lo, hi, n)
	if tab.Entries() != 2 {
		t.Fatalf("cross-block range must touch 2 entries, got %d", tab.Entries())
	}
	for a := lo; a < hi; a++ {
		if tab.Get(a) != n {
			t.Fatalf("Get(%#x) missed across block boundary", a)
		}
	}
	tab.ClearRange(lo, hi)
	if tab.Entries() != 0 {
		t.Error("both entries should be removed")
	}
}

func TestForRangeVisitsInOrder(t *testing.T) {
	tab := New[*node]()
	a, b := &node{1}, &node{2}
	tab.SetRange(0x100, 0x108, a)
	tab.SetRange(0x10c, 0x110, b)
	var got []uint64
	tab.ForRange(0xf0, 0x120, func(addr uint64, n *node) bool {
		got = append(got, addr)
		return true
	})
	if len(got) == 0 || got[0] != 0x100 {
		t.Fatalf("walk order wrong: %#x", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not ascending: %#x", got)
		}
	}
	// Early stop.
	count := 0
	tab.ForRange(0x100, 0x120, func(uint64, *node) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d slots", count)
	}
}

func TestPrevNextSet(t *testing.T) {
	tab := New[*node]()
	n := &node{1}
	tab.SetRange(0x100, 0x104, n)

	if a, v, ok := tab.PrevSet(0x108, 8); !ok || a != 0x103 || v != n {
		t.Errorf("PrevSet = (%#x, %v, %v)", a, v, ok)
	}
	if _, _, ok := tab.PrevSet(0x110, 8); ok {
		t.Error("PrevSet beyond maxDist must miss")
	}
	if a, v, ok := tab.NextSet(0xfc, 8); !ok || a != 0x100 || v != n {
		t.Errorf("NextSet = (%#x, %v, %v)", a, v, ok)
	}
	if _, _, ok := tab.NextSet(0xf0, 8); ok {
		t.Error("NextSet beyond maxDist must miss")
	}
	// NextSet includes the start address itself.
	if a, _, ok := tab.NextSet(0x102, 4); !ok || a != 0x102 {
		t.Errorf("NextSet at a set address = (%#x, %v)", a, ok)
	}
}

func TestPrevSetAtZero(t *testing.T) {
	tab := New[*node]()
	if _, _, ok := tab.PrevSet(2, 8); ok {
		t.Error("PrevSet near zero must not wrap")
	}
}

func TestPrevNextAcrossBlockBoundary(t *testing.T) {
	tab := New[*node]()
	n := &node{1}
	tab.SetRange(BlockSize-4, BlockSize, n) // last word of block 0
	if a, _, ok := tab.PrevSet(BlockSize+2, 8); !ok || a != BlockSize-1 {
		t.Errorf("PrevSet across boundary = (%#x, %v)", a, ok)
	}
	tab2 := New[*node]()
	tab2.SetRange(BlockSize, BlockSize+4, n) // first word of block 1
	if a, _, ok := tab2.NextSet(BlockSize-4, 8); !ok || a != BlockSize {
		t.Errorf("NextSet across boundary = (%#x, %v)", a, ok)
	}
}

func TestAccountingReleasesOnClear(t *testing.T) {
	tab := New[*node]()
	empty := tab.Bytes()
	n := &node{1}
	for i := 0; i < 64; i++ {
		tab.SetRange(uint64(i)*BlockSize, uint64(i)*BlockSize+8, n)
	}
	grown := tab.Bytes()
	if grown <= empty {
		t.Fatal("accounting did not grow")
	}
	if tab.PeakBytes() < grown {
		t.Fatal("peak below current")
	}
	for i := 0; i < 64; i++ {
		tab.ClearRange(uint64(i)*BlockSize, uint64(i)*BlockSize+8)
	}
	if tab.Bytes() >= grown {
		t.Error("accounting did not shrink after clears")
	}
	if tab.PeakBytes() < grown {
		t.Error("peak must be sticky")
	}
}

func TestHashGrowth(t *testing.T) {
	tab := New[*node]()
	n := &node{1}
	// Far more blocks than the initial bucket count.
	for i := 0; i < 2000; i++ {
		a := uint64(i) * BlockSize
		tab.SetRange(a, a+4, n)
	}
	for i := 0; i < 2000; i++ {
		a := uint64(i) * BlockSize
		if tab.Get(a) != n {
			t.Fatalf("lost slot %d after rehash", i)
		}
	}
	if tab.Entries() != 2000 {
		t.Errorf("entries = %d", tab.Entries())
	}
}

// Model-based property: a sequence of random SetRange/ClearRange operations
// agrees with a plain map reference at every address.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := New[*node]()
		ref := map[uint64]*node{}
		const span = 1024
		for op := 0; op < 300; op++ {
			lo := uint64(rng.Intn(span))
			hi := lo + uint64(rng.Intn(16)) + 1
			if rng.Intn(3) == 0 {
				tab.ClearRange(lo, hi)
				for a := lo; a < hi; a++ {
					delete(ref, a)
				}
			} else {
				n := &node{op}
				tab.SetRange(lo, hi, n)
				for a := lo; a < hi; a++ {
					ref[a] = n
				}
			}
		}
		for a := uint64(0); a < span+16; a++ {
			if tab.Get(a) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The word-granular (sparse) representation is an internal optimization; it
// must never change observable contents when an expansion happens.
func TestQuickExpansionTransparent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := New[*node]()
		ref := map[uint64]*node{}
		// Phase 1: word-aligned ranges only (entry stays sparse).
		for op := 0; op < 50; op++ {
			lo := uint64(rng.Intn(24)) * 4
			hi := lo + uint64(rng.Intn(4)+1)*4
			n := &node{op}
			tab.SetRange(lo, hi, n)
			for a := lo; a < hi; a++ {
				ref[a] = n
			}
		}
		// Phase 2: one byte write triggers expansion.
		n := &node{999}
		tab.SetRange(33, 34, n)
		ref[33] = n
		for a := uint64(0); a < 128; a++ {
			if tab.Get(a) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRunMatchesPerAddressWalk checks Run against a per-address Get walk on
// random layouts: sparse and dense entries, gaps, blocks with no entry,
// nodes enclosing other nodes' slots, and ranges across blocks. Half the
// queries are access-sized (1–8 bytes), the shape Run's one-slot and
// empty-block early returns serve.
func TestRunMatchesPerAddressWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := []*node{{1}, {2}, {3}, {4}}
	for iter := 0; iter < 200; iter++ {
		tab := New[*node]()
		span := (3 + 3*iter%2) * BlockSize // odd layouts leave blocks empty
		for k := 0; k < 6; k++ {
			lo := uint64(rng.Intn(span))
			if rng.Intn(2) == 0 {
				lo &^= 3 // keep some entries word-granular
			}
			hi := lo + uint64(1+rng.Intn(24))
			if rng.Intn(2) == 0 {
				hi = (hi + 3) &^ 3
			}
			tab.SetRange(lo, hi, nodes[rng.Intn(len(nodes))])
		}
		for q := 0; q < 50; q++ {
			lo := uint64(rng.Intn(span))
			hi := lo + uint64(1+rng.Intn(2*BlockSize))
			if q%2 == 0 {
				hi = lo + uint64(1+rng.Intn(8))
			}
			v, end := tab.Run(lo, hi)
			wantEnd := hi
			for a := lo; a < hi; a++ {
				if s := tab.Get(a); s != nil && s != tab.Get(lo) {
					wantEnd = a
					break
				}
			}
			if v != tab.Get(lo) || end != wantEnd {
				t.Fatalf("Run(%#x, %#x) = %v, %#x; want %v, %#x", lo, hi, v, end, tab.Get(lo), wantEnd)
			}
		}
	}
}
