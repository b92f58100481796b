// Package shadow implements the vector-clock indexing structure of Figure 4
// in the paper: a separately-chained hash table in which each entry covers a
// block of m = 128 consecutive addresses and holds an indexing array of
// pointers to per-location shadow nodes.
//
// An entry's indexing array starts with m/4 pointers — one per word — since
// the most common access pattern is word access. When an access that is not
// word-aligned begins inside the block, the array is expanded to m pointers
// (one per byte), replicating each word pointer into its four byte slots so
// lookups remain correct.
//
// A shadow node may cover a contiguous range of addresses; every slot in the
// range points at the same node. The table supports the sequential range
// operations the paper calls out — deleting entries on free() and the
// vector-clock sharing process — and accounts its own memory by object size
// for the Table 2 "Hash" column.
package shadow

// BlockSize is m, the number of addresses covered by one hash entry.
const BlockSize = 128

// BlockShift is log2(BlockSize): addr >> BlockShift is the block number an
// address belongs to. The sharded detection pipeline routes accesses to
// workers by block number, so one hash entry (and therefore any shared
// clock, which never spans entries) always lives on exactly one shard.
const BlockShift = 7

const (
	blockShift = BlockShift
	blockMask  = BlockSize - 1

	denseSlots  = BlockSize     // byte-granular indexing array
	sparseSlots = BlockSize / 4 // word-granular indexing array
)

// Accounting object sizes (bytes), chosen to mirror a C implementation the
// way the paper measures overhead ("based on object size").
const (
	entryHeaderBytes = 24 // key + next pointer + mode/count
	bucketSlotBytes  = 8
	slotBytes        = 8
)

// Table maps byte addresses to shadow nodes of type T (a pointer type; the
// zero value of T means "no node"). One Table serves one access plane: the
// detectors keep a read Table and a write Table, because read and write
// locations are maintained separately (paper §III.A).
type Table[T comparable] struct {
	buckets []*entry[T]
	mask    uint64
	entries int

	// Lookup cache: consecutive accesses overwhelmingly hit a handful of
	// 128-address blocks (a loop over two arrays alternates between two),
	// so the entries resolved last sit in a small direct-mapped cache
	// indexed by a Fibonacci hash of the block number, and the common-case
	// lookup is one comparison (no chain walk). The index must be hashed:
	// arrays a power-of-two number of blocks apart collide on their low
	// bits. Entries stay valid across grow (rehashing relinks the same
	// entry objects); only remove must invalidate, clearing the one slot
	// that can hold the entry: a removed entry waits on the freelist with
	// its old key, so a slot still holding it would hand it to the next
	// lookup of its block.
	cache [cacheWays]*entry[T]

	// memory accounting
	curBytes  int64
	peakBytes int64

	// Recycling: the malloc/free churn of short-lived allocations creates
	// and removes entries at high rate; headers and indexing arrays are
	// reused instead of reallocated. Headers come from arena slabs (one
	// heap allocation per entArenaChunk entries); removed entries push
	// their zeroed slot arrays onto per-granularity freelists.
	freeEnts   []*entry[T]
	freeSparse [][]T
	freeDense  [][]T
	entArena   []entry[T]
}

// entArenaChunk is the entry-header slab size.
const entArenaChunk = 64

// cacheWays is the size of the lookup cache; cacheShift turns a block
// hash into a cache index (its top cacheBits bits).
const (
	cacheBits  = 3
	cacheWays  = 1 << cacheBits
	cacheShift = 64 - cacheBits
)

type entry[T comparable] struct {
	key   uint64 // block number (addr >> blockShift)
	next  *entry[T]
	dense bool // true once the array holds one slot per byte
	used  int  // number of non-zero slots
	slots []T  // sparseSlots or denseSlots entries
}

// New returns an empty table.
func New[T comparable]() *Table[T] {
	t := &Table[T]{}
	t.init(64)
	return t
}

func (t *Table[T]) init(nbuckets int) {
	t.buckets = make([]*entry[T], nbuckets)
	t.mask = uint64(nbuckets - 1)
	t.account(int64(nbuckets) * bucketSlotBytes)
}

func (t *Table[T]) account(delta int64) {
	t.curBytes += delta
	if t.curBytes > t.peakBytes {
		t.peakBytes = t.curBytes
	}
}

// Bytes returns the current accounted size of the indexing structure.
func (t *Table[T]) Bytes() int64 { return t.curBytes }

// PeakBytes returns the maximum accounted size reached so far.
func (t *Table[T]) PeakBytes() int64 { return t.peakBytes }

// Entries returns the number of live hash entries (blocks with shadow state).
func (t *Table[T]) Entries() int { return t.entries }

func hashBlock(key uint64) uint64 {
	// Fibonacci hashing; the multiplier is 2^64 / φ.
	return key * 0x9e3779b97f4a7c15
}

func (t *Table[T]) find(key uint64) *entry[T] {
	h := hashBlock(key)
	slot := &t.cache[h>>cacheShift]
	if e := *slot; e != nil && e.key == key {
		return e
	}
	for e := t.buckets[h>>32&t.mask]; e != nil; e = e.next {
		if e.key == key {
			*slot = e
			return e
		}
	}
	return nil
}

func (t *Table[T]) findOrCreate(key uint64) *entry[T] {
	if e := t.find(key); e != nil {
		return e
	}
	h := hashBlock(key)
	idx := h >> 32 & t.mask
	e := t.newEntry(key)
	e.next = t.buckets[idx]
	t.buckets[idx] = e
	t.entries++
	t.account(entryHeaderBytes + sparseSlots*slotBytes)
	if t.entries > len(t.buckets)*4 {
		t.grow()
	}
	t.cache[h>>cacheShift] = e
	return e
}

func (t *Table[T]) grow() {
	old := t.buckets
	t.account(-int64(len(old)) * bucketSlotBytes)
	t.init(len(old) * 2)
	for _, e := range old {
		for e != nil {
			next := e.next
			idx := hashBlock(e.key) >> 32 & t.mask
			e.next = t.buckets[idx]
			t.buckets[idx] = e
			e = next
		}
	}
}

// newEntry returns a sparse entry for block key, served from the recycled
// headers/arrays when available. Recycled slot arrays were zeroed when
// their entry was removed, so every array handed out reads as empty.
func (t *Table[T]) newEntry(key uint64) *entry[T] {
	var e *entry[T]
	if k := len(t.freeEnts); k > 0 {
		e = t.freeEnts[k-1]
		t.freeEnts[k-1] = nil
		t.freeEnts = t.freeEnts[:k-1]
	} else {
		if len(t.entArena) == 0 {
			t.entArena = make([]entry[T], entArenaChunk)
		}
		e = &t.entArena[0]
		t.entArena = t.entArena[1:]
	}
	e.key = key
	e.dense = false
	e.used = 0
	if k := len(t.freeSparse); k > 0 {
		e.slots = t.freeSparse[k-1]
		t.freeSparse[k-1] = nil
		t.freeSparse = t.freeSparse[:k-1]
	} else {
		e.slots = make([]T, sparseSlots)
	}
	return e
}

func (t *Table[T]) remove(e *entry[T]) {
	h := hashBlock(e.key)
	if slot := &t.cache[h>>cacheShift]; *slot == e {
		// e is about to be recycled: a stale hit would read (or write!)
		// slots of a freelist entry or of an unrelated block.
		*slot = nil
	}
	idx := h >> 32 & t.mask
	p := &t.buckets[idx]
	for *p != nil {
		if *p == e {
			*p = e.next
			t.entries--
			n := sparseSlots
			if e.dense {
				n = denseSlots
			}
			t.account(-int64(entryHeaderBytes + n*slotBytes))
			t.recycle(e)
			return
		}
		p = &(*p).next
	}
}

// recycle zeroes e's slot array (remove fires at used == 0, so this is
// normally a no-op pass — it is kept as a hard guarantee that recycled
// arrays read empty), stashes it on the matching freelist, and parks the
// header for reuse.
func (t *Table[T]) recycle(e *entry[T]) {
	var zero T
	for i := range e.slots {
		e.slots[i] = zero
	}
	if e.dense {
		t.freeDense = append(t.freeDense, e.slots)
	} else {
		t.freeSparse = append(t.freeSparse, e.slots)
	}
	e.slots = nil
	e.next = nil
	t.freeEnts = append(t.freeEnts, e)
}

// expand converts a sparse (word-granular) entry to a dense (byte-granular)
// one, replicating each word pointer into its four byte slots. This is the
// m/4 → m growth in Figure 4.
func (e *entry[T]) expand(t *Table[T]) {
	if e.dense {
		return
	}
	var ns []T
	if k := len(t.freeDense); k > 0 {
		ns = t.freeDense[k-1]
		t.freeDense[k-1] = nil
		t.freeDense = t.freeDense[:k-1]
	} else {
		ns = make([]T, denseSlots)
	}
	var zero T
	for i, v := range e.slots {
		if v != zero {
			ns[4*i], ns[4*i+1], ns[4*i+2], ns[4*i+3] = v, v, v, v
			e.slots[i] = zero // zero the sparse array as we drain it
		}
	}
	t.freeSparse = append(t.freeSparse, e.slots)
	e.used *= 4
	e.slots = ns
	e.dense = true
	t.account((denseSlots - sparseSlots) * slotBytes)
}

// slotIndex returns the index of addr's slot in e, or -1 when the sparse
// array cannot address it without expansion (which never happens for
// word-aligned addresses).
func (e *entry[T]) slotIndex(addr uint64) int {
	off := int(addr & blockMask)
	if e.dense {
		return off
	}
	return off >> 2
}

// Get returns the node whose range covers addr, or the zero T.
func (t *Table[T]) Get(addr uint64) T {
	e := t.find(addr >> blockShift)
	if e == nil {
		var zero T
		return zero
	}
	return e.slots[e.slotIndex(addr)]
}

// aligned reports whether [lo, hi) can be represented by a sparse entry,
// i.e. both bounds are word-aligned.
func aligned(lo, hi uint64) bool { return lo&3 == 0 && hi&3 == 0 }

// SetRange points every slot in [lo, hi) at v, expanding entries to byte
// granularity when the range is not word-aligned. v must be non-zero.
func (t *Table[T]) SetRange(lo, hi uint64, v T) {
	var zero T
	for lo < hi {
		blockEnd := (lo | blockMask) + 1
		end := hi
		if end > blockEnd {
			end = blockEnd
		}
		e := t.findOrCreate(lo >> blockShift)
		if !e.dense && !aligned(lo, end) {
			e.expand(t)
		}
		if e.dense {
			for a := lo; a < end; a++ {
				i := int(a & blockMask)
				if e.slots[i] == zero {
					e.used++
				}
				e.slots[i] = v
			}
		} else {
			for a := lo; a < end; a += 4 {
				i := int(a&blockMask) >> 2
				if e.slots[i] == zero {
					e.used++
				}
				e.slots[i] = v
			}
		}
		lo = end
	}
}

// ReplaceRange is SetRange restricted to the slots in [lo, hi) that are
// empty or hold old; a slot holding any other value keeps it.
func (t *Table[T]) ReplaceRange(lo, hi uint64, old, v T) {
	var zero T
	for lo < hi {
		blockEnd := (lo | blockMask) + 1
		end := hi
		if end > blockEnd {
			end = blockEnd
		}
		e := t.findOrCreate(lo >> blockShift)
		if !e.dense && !aligned(lo, end) {
			e.expand(t)
		}
		step := uint64(4)
		if e.dense {
			step = 1
		}
		for a := lo; a < end; a += step {
			i := e.slotIndex(a)
			switch e.slots[i] {
			case zero:
				e.used++
			case old:
			default:
				continue
			}
			e.slots[i] = v
		}
		lo = end
	}
}

// ClearRange erases every slot in [lo, hi), removing entries that become
// empty (the free() path).
func (t *Table[T]) ClearRange(lo, hi uint64) {
	var zero T
	for lo < hi {
		blockEnd := (lo | blockMask) + 1
		end := hi
		if end > blockEnd {
			end = blockEnd
		}
		if e := t.find(lo >> blockShift); e != nil {
			if !e.dense && !aligned(lo, end) {
				e.expand(t)
			}
			step := uint64(4)
			if e.dense {
				step = 1
			}
			for a := lo; a < end; a += step {
				i := e.slotIndex(a)
				if e.slots[i] != zero {
					e.slots[i] = zero
					e.used--
				}
			}
			if e.used == 0 {
				t.remove(e)
			}
		}
		lo = end
	}
}

// Run returns the value v of lo's slot and the end of its run in [lo, hi):
// the first address whose slot holds a value other than v or the zero T,
// or hi. Empty slots continue a node's run (a node's range can span
// unaccessed gaps), and a run of empty slots ends at the first set slot, so
// a walk steps from one node to the next with one call per node. A node's
// range can also enclose slots of other nodes; its run stops there.
func (t *Table[T]) Run(lo, hi uint64) (v T, end uint64) {
	var zero T
	e := t.find(lo >> blockShift)
	switch {
	case e == nil:
		if hi <= (lo|blockMask)+1 {
			return v, hi // inside a block with no entry
		}
	case e.dense:
		v = e.slots[lo&blockMask]
		if hi == lo+1 {
			return v, hi // inside lo's own slot
		}
	default:
		v = e.slots[lo&blockMask>>2]
		if hi <= lo&^3+4 {
			return v, hi
		}
	}
	for lo < hi {
		blockEnd := (lo | blockMask) + 1
		if blockEnd > hi {
			blockEnd = hi
		}
		if e != nil {
			for a := lo; a < blockEnd; {
				if s := e.slots[e.slotIndex(a)]; s != zero && s != v {
					return v, a
				}
				if e.dense {
					a++
				} else {
					a = a&^3 + 4
				}
			}
		}
		lo = blockEnd
		if lo < hi {
			e = t.find(lo >> blockShift)
		}
	}
	return v, hi
}

// ForRange calls f for every set slot in [lo, hi) in address order, with the
// slot's granule start address and node. A node covering several slots is
// visited once per slot; callers coalesce by pointer identity. f returning
// false stops the walk.
func (t *Table[T]) ForRange(lo, hi uint64, f func(addr uint64, v T) bool) {
	var zero T
	for lo < hi {
		blockEnd := (lo | blockMask) + 1
		end := hi
		if end > blockEnd {
			end = blockEnd
		}
		if e := t.find(lo >> blockShift); e != nil {
			step := uint64(4)
			if e.dense {
				step = 1
			}
			a := lo &^ (step - 1)
			for ; a < end; a += step {
				v := e.slots[e.slotIndex(a)]
				if v != zero && !f(a, v) {
					return
				}
			}
		}
		lo = end
	}
}

// PrevSet scans left from addr-1 for at most maxDist addresses and returns
// the nearest address with a node. It realizes the paper's "nearest
// predecessor that has a valid vector clock" neighbour lookup for
// first-epoch sharing; the bound keeps it O(1) (padding gaps inside C
// structs are at most 7 bytes, so a small bound loses nothing). Each hash
// entry on the path is resolved once and its indexing array scanned
// directly.
func (t *Table[T]) PrevSet(addr uint64, maxDist int) (uint64, T, bool) {
	var zero T
	var e *entry[T]
	var eKey uint64 = ^uint64(0)
	for d := 1; d <= maxDist; d++ {
		a := addr - uint64(d)
		if a > addr { // wrapped below zero
			break
		}
		if key := a >> blockShift; key != eKey {
			e, eKey = t.find(key), key
		}
		if e == nil {
			// Skip the rest of this empty block in one step.
			d += int(a & blockMask)
			continue
		}
		if v := e.slots[e.slotIndex(a)]; v != zero {
			return a, v, true
		}
	}
	return 0, zero, false
}

// NextSet scans right from addr for at most maxDist addresses and returns
// the nearest address with a node (the successor neighbour lookup).
func (t *Table[T]) NextSet(addr uint64, maxDist int) (uint64, T, bool) {
	var zero T
	var e *entry[T]
	var eKey uint64 = ^uint64(0)
	for d := 0; d < maxDist; d++ {
		a := addr + uint64(d)
		if key := a >> blockShift; key != eKey {
			e, eKey = t.find(key), key
		}
		if e == nil {
			d += int(blockMask - a&blockMask)
			continue
		}
		if v := e.slots[e.slotIndex(a)]; v != zero {
			return a, v, true
		}
	}
	return 0, zero, false
}

// EntryDense reports whether the entry covering addr exists and has been
// expanded to byte granularity. Tests of Figure 4 use it.
func (t *Table[T]) EntryDense(addr uint64) (exists, dense bool) {
	e := t.find(addr >> blockShift)
	if e == nil {
		return false, false
	}
	return true, e.dense
}
