// Package epochbitmap implements the per-thread same-epoch access filter of
// Section IV.A of the paper. In DJIT+/FastTrack only the first read and the
// first write of a location in an epoch need full analysis; every later
// access in the same epoch can return immediately. Looking a location up in
// the global shadow structure to discover this is expensive, so each thread
// keeps a private bitmap of the addresses it has read and written during the
// current epoch. The bitmap is reset at every lock release (the start of the
// thread's next epoch).
//
// The filter tracks reads and writes separately: a second write in an epoch
// is redundant only if the thread already wrote the location this epoch,
// while a second read is redundant if the thread already read *or wrote* it
// (the earlier write both performed the stronger checks and established the
// thread's access).
//
// Resetting is O(1): chunks carry a generation stamp and are lazily zeroed
// when touched under a newer generation, so per-release cost does not scale
// with the number of addresses touched. Retained chunk storage is accounted
// by object size for the Table 2 "Bitmap" column; chunks are never freed, so
// the retained bytes only grow.
package epochbitmap

const (
	chunkAddrs = 2048 // addresses covered per chunk
	chunkShift = 11
	chunkMask  = chunkAddrs - 1
	chunkWords = chunkAddrs * 2 / 64 // 2 bits per address

	chunkHeaderBytes = 16
	chunkBytes       = chunkHeaderBytes + chunkWords*8
	mapSlotBytes     = 48 // map bucket amortized per live key, accounting estimate
)

type chunk struct {
	key  uint64 // chunk number (addr >> chunkShift)
	gen  uint32
	bits [chunkWords]uint64 // even bit: read, odd bit: write
}

// cacheWays is the size of a bitmap's chunk cache; cacheShift turns a
// chunk hash into a cache index (its top cacheBits bits).
const (
	cacheBits  = 2
	cacheWays  = 1 << cacheBits
	cacheShift = 64 - cacheBits
)

// cacheIndex is a Fibonacci hash of chunk number key (the multiplier is
// 2^64 / φ): arrays a power-of-two number of chunks apart would collide on
// the key's low bits.
func cacheIndex(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> cacheShift }

// Bitmap is one thread's same-epoch filter. It is not safe for concurrent
// use; the engine runs one virtual thread at a time so this never arises.
type Bitmap struct {
	chunks map[uint64]*chunk
	gen    uint32

	// Chunk cache: consecutive accesses overwhelmingly hit a few
	// 2048-address chunks (a loop over two arrays alternates between two),
	// so the chunks resolved last sit in a small direct-mapped cache and
	// skip the map lookup. Chunks are never deleted, so the cache never
	// goes stale; a cached chunk of an older generation still needs its
	// lazy reset.
	cache [cacheWays]*chunk

	bytes int64
	// total is a running sum shared by a group of bitmaps (one detector's
	// threads); chunk growth is added to it as well.
	total *int64
}

// New returns an empty bitmap that adds its retained storage to the
// running sum *total, so an owner of many bitmaps reads their combined
// size in O(1).
func New(total *int64) *Bitmap {
	return &Bitmap{chunks: make(map[uint64]*chunk), gen: 1, total: total}
}

// Reset starts a new epoch: every address reads as unaccessed afterwards.
func (b *Bitmap) Reset() { b.gen++ }

// Bytes returns the retained storage of the bitmap. Chunks are never
// freed, so this is also its peak.
func (b *Bitmap) Bytes() int64 { return b.bytes }

func (b *Bitmap) chunkFor(key uint64) *chunk {
	slot := &b.cache[cacheIndex(key)]
	c := *slot
	if c == nil || c.key != key {
		c = b.chunks[key]
		if c == nil {
			c = &chunk{key: key, gen: b.gen}
			b.chunks[key] = c
			b.bytes += chunkBytes + mapSlotBytes
			*b.total += chunkBytes + mapSlotBytes
		}
		*slot = c
	}
	if c.gen != b.gen {
		c.bits = [chunkWords]uint64{}
		c.gen = b.gen
	}
	return c
}

// laneRep replicates a 2-bit lane pattern across all 32 lanes of a word:
// 0b01 → 0x5555…, 0b10 → 0xAAAA…, 0b11 → all ones.
const laneRep = 0x5555555555555555

// testAndSet visits each address in [lo, hi) and reports whether every
// address already had the required bits. mask selects which of the two bits
// per address must already be present for the access to count as
// same-epoch; set selects which bits to record.
//
// The work is done a 64-bit word (32 addresses) at a time. Ranges that fall
// inside one word (≤ 31 addresses, which covers every real access
// footprint) of a cached chunk already reset for the current epoch take a
// single-word fast path. This is the detector's hottest code — it runs on
// every shared access — so the fast path is what keeps the same-epoch
// filter effectively free; everything else (a chunk to resolve or reset,
// and longer ranges such as a shared node's whole range, marked by the
// dynamic-granularity detector, at one word operation per 32 addresses)
// takes the general path.
func (b *Bitmap) testAndSet(lo, hi uint64, need, set uint64) bool {
	key := lo >> chunkShift
	if c := b.cache[cacheIndex(key)]; c != nil && c.key == key && c.gen == b.gen {
		if n := hi - lo; n > 0 && n <= 31 {
			off := (lo & chunkMask) * 2
			if sh := off & 63; sh+2*n <= 64 {
				return wordTestAndSet(&c.bits[off>>6], sh, n, need, set)
			}
		}
	}
	return b.testAndSetRange(lo, hi, need, set)
}

// testAndSetRange is testAndSet's general path.
func (b *Bitmap) testAndSetRange(lo, hi uint64, need, set uint64) bool {
	all := true
	for lo < hi {
		c := b.chunkFor(lo >> chunkShift)
		end := (lo | chunkMask) + 1
		if end > hi {
			end = hi
		}
		for lo < end {
			off := (lo & chunkMask) * 2
			sh := off & 63
			n := min(end-lo, (64-sh)/2)
			if !wordTestAndSet(&c.bits[off>>6], sh, n, need, set) {
				all = false
			}
			lo += n
		}
	}
	return all
}

// wordTestAndSet is testAndSet for the n addresses whose lanes start at bit
// sh of word w (sh + 2n ≤ 64). A lane (address) counts as covered when ANY
// of its required bits is present: each lane's two bits collapse onto its
// low bit, compared against the full lane set.
func wordTestAndSet(w *uint64, sh, n, need, set uint64) bool {
	rangeMask := (uint64(1)<<(2*n) - 1) << sh // n == 32: 1<<64 is 0, so all ones
	x := *w & (need * laneRep) & rangeMask
	lanes := (laneRep << sh) & rangeMask
	*w |= (set * laneRep) & rangeMask
	return (x|x>>1)&lanes == lanes
}

const (
	readBit  = 0b01
	writeBit = 0b10
)

// Read records a read of [lo, hi) and reports whether the whole range was
// already covered this epoch (in which case the detector can skip it).
func (b *Bitmap) Read(lo, hi uint64) (sameEpoch bool) {
	return b.testAndSet(lo, hi, readBit|writeBit, readBit)
}

// Write records a write of [lo, hi) and reports whether the whole range was
// already written this epoch.
func (b *Bitmap) Write(lo, hi uint64) (sameEpoch bool) {
	return b.testAndSet(lo, hi, writeBit, writeBit)
}

// MarkRead records [lo, hi) as read without testing. The dynamic-granularity
// detector uses it to cover a whole shared node after one of its locations
// is read, which is how a larger granularity turns multiple accesses into
// same-epoch accesses (Section V.A, "Slowdown").
func (b *Bitmap) MarkRead(lo, hi uint64) { b.testAndSet(lo, hi, 0, readBit) }

// MarkWrite records [lo, hi) as written without testing.
func (b *Bitmap) MarkWrite(lo, hi uint64) { b.testAndSet(lo, hi, 0, writeBit) }
