package shadow

import (
	"math/rand"
	"testing"
)

// node (the dummy pointer payload) is declared in shadow_test.go.

// model is an oracle: a plain map from address to node pointer.
type model map[uint64]*node

func (m model) setRange(lo, hi uint64, v *node) {
	for a := lo; a < hi; a++ {
		m[a] = v
	}
}

func (m model) clearRange(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		delete(m, a)
	}
}

// checkInvariants asserts the accounting invariants that must hold at every
// point of an interleaved insert/remove/grow history.
func checkInvariants(t *testing.T, tab *Table[*node]) {
	t.Helper()
	if tab.Entries() < 0 {
		t.Fatalf("Entries() went negative: %d", tab.Entries())
	}
	if tab.Bytes() < 0 {
		t.Fatalf("Bytes() went negative: %d", tab.Bytes())
	}
	if tab.PeakBytes() < tab.Bytes() {
		t.Fatalf("PeakBytes() %d < Bytes() %d", tab.PeakBytes(), tab.Bytes())
	}
}

// checkAgainstModel verifies every address the model knows about (and a halo
// around them) through Get.
func checkAgainstModel(t *testing.T, tab *Table[*node], m model, lo, hi uint64) {
	t.Helper()
	for a := lo; a < hi; a++ {
		want := m[a] // nil when absent
		if got := tab.Get(a); got != want {
			t.Fatalf("Get(%#x) = %v, want %v", a, got, want)
		}
	}
}

// TestChurnInterleaved drives interleaved SetRange/ClearRange traffic with
// word-aligned and unaligned ranges (forcing sparse→dense expansion) against
// a map oracle, asserting the accounting invariants after every operation.
// The address space is sized to push the table through several grow()
// rehashes while removals run concurrently with inserts.
func TestChurnInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New[*node]()
	m := model{}

	const span = uint64(1 << 16) // 512 blocks; >256 entries forces grows
	nodes := make([]*node, 0, 4096)
	for i := 0; i < 6000; i++ {
		lo := rng.Uint64() % span
		length := uint64(1 + rng.Intn(20))
		if rng.Intn(2) == 0 {
			// Word-aligned range: exercises the sparse path.
			lo &^= 3
			length = (length + 3) &^ 3
		}
		hi := lo + length
		switch rng.Intn(3) {
		case 0, 1:
			v := &node{id: i}
			nodes = append(nodes, v)
			tab.SetRange(lo, hi, v)
			m.setRange(lo, hi, v)
		case 2:
			tab.ClearRange(lo, hi)
			m.clearRange(lo, hi)
		}
		checkInvariants(t, tab)
		if i%257 == 0 {
			// Periodic deep check around a random window.
			w := rng.Uint64() % span
			end := w + 512
			if end > span {
				end = span
			}
			checkAgainstModel(t, tab, m, w, end)
		}
	}
	checkAgainstModel(t, tab, m, 0, span)
	_ = nodes

	// Drain everything; the table must return to an empty state without
	// negative counters.
	tab.ClearRange(0, span)
	if tab.Entries() != 0 {
		t.Fatalf("Entries() = %d after full clear, want 0", tab.Entries())
	}
	checkInvariants(t, tab)
	for a := uint64(0); a < span; a += 37 {
		if tab.Get(a) != nil {
			t.Fatalf("Get(%#x) non-nil after full clear", a)
		}
	}
}

// TestChurnRangeNodesAcrossExpansion inserts a range node via the sparse
// (word-aligned) path, forces the covering entry dense with an unaligned
// insert, and checks the pre-existing range still resolves correctly and
// can be removed without accounting drift.
func TestChurnRangeNodesAcrossExpansion(t *testing.T) {
	tab := New[*node]()
	r := &node{id: 1}
	// Word-aligned range node covering 3 words of block 0.
	tab.SetRange(8, 20, r)
	if exists, dense := tab.EntryDense(8); !exists || dense {
		t.Fatalf("entry after aligned insert: exists=%v dense=%v, want sparse", exists, dense)
	}
	before := tab.Bytes()

	// Unaligned single-byte insert into the same block expands the entry.
	b := &node{id: 2}
	tab.SetRange(33, 34, b)
	if _, dense := tab.EntryDense(8); !dense {
		t.Fatal("entry should be dense after unaligned insert")
	}
	if tab.Bytes() <= before {
		t.Fatalf("expansion did not grow accounted bytes: %d -> %d", before, tab.Bytes())
	}
	// The replicated range node must still cover exactly [8, 20).
	for a := uint64(0); a < 64; a++ {
		var want *node
		switch {
		case a >= 8 && a < 20:
			want = r
		case a == 33:
			want = b
		}
		if got := tab.Get(a); got != want {
			t.Fatalf("Get(%#x) = %v, want %v after expansion", a, got, want)
		}
	}

	// Remove the range; the byte node must survive, then removing it empties
	// the entry and releases it.
	tab.ClearRange(8, 20)
	if got := tab.Get(33); got != b {
		t.Fatal("byte node lost when clearing unrelated range")
	}
	tab.ClearRange(33, 34)
	if tab.Entries() != 0 {
		t.Fatalf("Entries() = %d, want 0", tab.Entries())
	}
	if tab.Bytes() < 0 {
		t.Fatalf("Bytes() negative after removals: %d", tab.Bytes())
	}
	checkInvariants(t, tab)
}

// TestChurnLookupsAfterRehash fills enough distinct blocks to force several
// grow() rehashes, then verifies every key still resolves (including through
// the lookup cache) and that interleaved removals keep lookups correct.
func TestChurnLookupsAfterRehash(t *testing.T) {
	tab := New[*node]()
	const blocks = 2000 // well past 64*4, so grow() runs multiple times
	vals := make([]*node, blocks)
	for i := 0; i < blocks; i++ {
		vals[i] = &node{id: i}
		lo := uint64(i) * BlockSize
		tab.SetRange(lo, lo+4, vals[i])
	}
	if tab.Entries() != blocks {
		t.Fatalf("Entries() = %d, want %d", tab.Entries(), blocks)
	}
	for i := 0; i < blocks; i++ {
		lo := uint64(i) * BlockSize
		if got := tab.Get(lo); got != vals[i] {
			t.Fatalf("Get(block %d) = %v, want %v after rehash", i, got, vals[i])
		}
	}
	// Remove every other block; the cache must not serve stale entries.
	for i := 0; i < blocks; i += 2 {
		lo := uint64(i) * BlockSize
		tab.ClearRange(lo, lo+4)
		if got := tab.Get(lo); got != nil {
			t.Fatalf("Get(block %d) = %v after removal, want nil", i, got)
		}
		// Immediately re-query the just-removed block's neighbour, which
		// exercises cache invalidation + refill.
		if i+1 < blocks {
			if got := tab.Get(uint64(i+1) * BlockSize); got != vals[i+1] {
				t.Fatalf("Get(block %d) wrong after neighbour removal", i+1)
			}
		}
	}
	if tab.Entries() != blocks/2 {
		t.Fatalf("Entries() = %d, want %d", tab.Entries(), blocks/2)
	}
	checkInvariants(t, tab)
}

// TestChurnRemoveReinsertSameBlock exercises the remove → reinsert path on
// one block, which must not leak accounting or resurrect dense mode.
func TestChurnRemoveReinsertSameBlock(t *testing.T) {
	tab := New[*node]()
	for round := 0; round < 50; round++ {
		v := &node{id: round}
		// Unaligned insert: entry goes dense immediately.
		tab.SetRange(1, 7, v)
		if got := tab.Get(3); got != v {
			t.Fatalf("round %d: Get = %v, want %v", round, got, v)
		}
		tab.ClearRange(1, 7)
		if tab.Entries() != 0 {
			t.Fatalf("round %d: Entries() = %d, want 0", round, tab.Entries())
		}
		checkInvariants(t, tab)
	}
	// Steady-state churn must not ratchet current bytes upward: after the
	// last clear only the bucket array remains accounted.
	if tab.Bytes() != int64(cap(tab.buckets))*bucketSlotBytes {
		t.Fatalf("Bytes() = %d after churn, want bucket array only (%d)",
			tab.Bytes(), int64(cap(tab.buckets))*bucketSlotBytes)
	}
}
