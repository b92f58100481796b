// Regression tests for the lookup cache under entry recycling. Before
// entry headers were pooled, a stale cache entry after remove() was merely
// a dead pointer the GC kept alive; with recycling, the same header is
// re-issued for a different block, so a stale hit would read — or write —
// the slots of an unrelated block. These tests pin the invalidation and
// the recycled-entry resurrection scenario, plus the peak-accounting
// monotonicity the bench lane reports.
package shadow

import (
	"math/rand"
	"testing"
)

// checkCacheLive fails if a lookup-cache slot holds an entry that is not
// linked into the table under that slot's index (a removed, possibly
// recycled, entry).
func checkCacheLive(t *testing.T, tab *Table[*node]) {
	t.Helper()
	for i, e := range tab.cache {
		if e == nil {
			continue
		}
		if hashBlock(e.key)>>cacheShift != uint64(i) {
			t.Fatalf("cache slot %d holds block %d, which indexes slot %d", i, e.key, hashBlock(e.key)>>cacheShift)
		}
		live := false
		for c := tab.buckets[hashBlock(e.key)>>32&tab.mask]; c != nil; c = c.next {
			live = live || c == e
		}
		if !live {
			t.Fatalf("cache slot %d holds a removed entry (block %d)", i, e.key)
		}
	}
}

// sameCacheSlot returns the first block after key that shares its lookup
// cache slot.
func sameCacheSlot(key uint64) uint64 {
	for k := key + 1; ; k++ {
		if hashBlock(k)>>cacheShift == hashBlock(key)>>cacheShift {
			return k
		}
	}
}

// TestRemoveInvalidatesLookupCache drives the exact resurrection hazard:
// warm the cache on block A, empty block A (remove + recycle), then
// populate block B so the recycled header is re-issued keyed for B. A
// surviving cache entry for A would now alias B's slots.
func TestRemoveInvalidatesLookupCache(t *testing.T) {
	tab := New[*node]()
	a := &node{id: 1}
	tab.SetRange(10, 12, a) // block 0; the cache now holds block 0's entry
	if tab.Get(10) != a {
		t.Fatal("warm-up lookup failed")
	}
	tab.ClearRange(0, BlockSize) // empties block 0 → remove + recycle
	checkCacheLive(t, tab)
	b := &node{id: 2}
	tab.SetRange(BlockSize+10, BlockSize+12, b) // block 1 reuses the header
	checkCacheLive(t, tab)
	if got := tab.Get(10); got != nil {
		t.Fatalf("block 0 read after recycle: got %+v, want nil (stale cache aliased block 1)", got)
	}
	if got := tab.Get(BlockSize + 10); got != b {
		t.Fatalf("block 1 read: got %+v, want %+v", got, b)
	}
}

// TestRemoveInvalidatesSharedCacheSlot alternates two blocks that index
// the same cache slot across remove and recycle: each round empties one
// block (its header goes to the freelist) and refills the other, which
// re-issues that header. Every lookup must see only its own block.
func TestRemoveInvalidatesSharedCacheSlot(t *testing.T) {
	tab := New[*node]()
	keys := [2]uint64{3, sameCacheSlot(3)}
	vals := [2]*node{{id: 1}, {id: 2}}
	for round := 0; round < 8; round++ {
		cur, other := round%2, 1-round%2
		lo := keys[cur] * BlockSize
		tab.SetRange(lo+4, lo+8, vals[cur])
		checkCacheLive(t, tab)
		if got := tab.Get(lo + 4); got != vals[cur] {
			t.Fatalf("round %d: block %d read %+v, want %+v", round, keys[cur], got, vals[cur])
		}
		if got := tab.Get(keys[other]*BlockSize + 4); got != nil {
			t.Fatalf("round %d: emptied block %d read %+v, want nil", round, keys[other], got)
		}
		tab.ClearRange(lo, lo+BlockSize)
		checkCacheLive(t, tab)
		if got := tab.Get(lo + 4); got != nil {
			t.Fatalf("round %d: block %d read %+v after its clear, want nil", round, keys[cur], got)
		}
		if tab.Entries() != 0 {
			t.Fatalf("round %d: %d entries after clear, want 0", round, tab.Entries())
		}
	}
}

// TestClearRangeManyBlocksInvalidatesCache covers the DropRange-shaped
// path: a multi-block clear must not leave the cache pointing at any of
// the removed entries, regardless of which block was cached last.
func TestClearRangeManyBlocksInvalidatesCache(t *testing.T) {
	tab := New[*node]()
	v := &node{id: 3}
	for blk := uint64(0); blk < 8; blk++ {
		tab.SetRange(blk*BlockSize, blk*BlockSize+4, v)
	}
	// Touch each block so the cache lands on every candidate in turn, then
	// clear everything and verify emptiness through the cached path.
	for blk := uint64(0); blk < 8; blk++ {
		if tab.Get(blk*BlockSize) != v {
			t.Fatalf("block %d warm-up failed", blk)
		}
		tab.ClearRange(blk*BlockSize, (blk+1)*BlockSize)
		checkCacheLive(t, tab)
		if got := tab.Get(blk * BlockSize); got != nil {
			t.Fatalf("block %d read after clear: got %+v, want nil", blk, got)
		}
	}
	if tab.Entries() != 0 {
		t.Fatalf("entries after full clear: %d, want 0", tab.Entries())
	}
}

// TestPeakBytesMonotone churns a table through random set/expand/clear
// cycles and asserts the accounting invariants the memory lane reports:
// PeakBytes never decreases, always dominates Bytes, and Bytes returns to
// the empty-table floor when everything is cleared (recycled capacity is
// not counted as live shadow bytes).
func TestPeakBytesMonotone(t *testing.T) {
	tab := New[*node]()
	floor := tab.Bytes()
	rng := rand.New(rand.NewSource(7))
	v := &node{id: 9}
	prevPeak := tab.PeakBytes()
	for i := 0; i < 2000; i++ {
		blk := uint64(rng.Intn(32)) * BlockSize
		switch rng.Intn(3) {
		case 0: // word-aligned fill (sparse entry)
			tab.SetRange(blk, blk+uint64(4+rng.Intn(int(BlockSize)-4))&^3, v)
		case 1: // unaligned fill forces sparse→dense expansion
			lo := blk + uint64(1+rng.Intn(8))
			tab.SetRange(lo, lo+uint64(1+rng.Intn(16)), v)
		case 2:
			tab.ClearRange(blk, blk+BlockSize)
		}
		if p := tab.PeakBytes(); p < prevPeak {
			t.Fatalf("op %d: PeakBytes regressed %d → %d", i, prevPeak, p)
		} else {
			prevPeak = p
		}
		if tab.Bytes() > tab.PeakBytes() {
			t.Fatalf("op %d: Bytes %d exceeds PeakBytes %d", i, tab.Bytes(), tab.PeakBytes())
		}
	}
	tab.ClearRange(0, 32*BlockSize)
	if tab.Bytes() != floor {
		t.Fatalf("Bytes after full clear: %d, want empty-table floor %d", tab.Bytes(), floor)
	}
	if tab.PeakBytes() != prevPeak {
		t.Fatalf("PeakBytes changed on clear: %d → %d", prevPeak, tab.PeakBytes())
	}
}
