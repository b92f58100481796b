package epochbitmap

import (
	"math/rand"
	"testing"
)

// refBitmap is a straight-line reference model of the same-epoch filter:
// two per-address bit sets without chunking, generations or word tricks.
type refBitmap struct {
	read, write map[uint64]bool
}

func newRef() *refBitmap {
	return &refBitmap{read: map[uint64]bool{}, write: map[uint64]bool{}}
}

func (r *refBitmap) Reset() {
	r.read, r.write = map[uint64]bool{}, map[uint64]bool{}
}

func (r *refBitmap) Read(lo, hi uint64) bool {
	all := true
	for a := lo; a < hi; a++ {
		if !r.read[a] && !r.write[a] {
			all = false
		}
		r.read[a] = true
	}
	return all
}

func (r *refBitmap) Write(lo, hi uint64) bool {
	all := true
	for a := lo; a < hi; a++ {
		if !r.write[a] {
			all = false
		}
		r.write[a] = true
	}
	return all
}

func (r *refBitmap) MarkRead(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		r.read[a] = true
	}
}

func (r *refBitmap) MarkWrite(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		r.write[a] = true
	}
}

// trafficChunks are the chunk numbers TestWordFastPathEquivalence spreads
// its traffic over: more than the chunk cache has ways, with neighbours
// and chunks a power of two apart (whose low bits collide).
var trafficChunks = []uint64{0, 1, 2, 3, 1 << 10, 3 << 10, 1<<10 + 1, 3 << 11, 1 << 20}

// TestWordFastPathEquivalence drives randomized read/write/mark/reset
// traffic through the bitmap and the reference model in lockstep. Range
// sizes and offsets are chosen to land on both sides of the single-word
// fast-path boundary (≤ 31 addresses within one 64-bit word) and to
// straddle word and chunk boundaries, so both code paths are exercised and
// must agree. The traffic interleaves more chunks than the chunk cache
// holds, with resets in between, so cached chunks are evicted, re-resolved
// and lazily reset under every combination of generations.
func TestWordFastPathEquivalence(t *testing.T) {
	if len(trafficChunks) <= cacheWays {
		t.Fatalf("%d traffic chunks do not exceed the %d cache ways", len(trafficChunks), cacheWays)
	}
	rng := rand.New(rand.NewSource(7))
	b := New(new(int64))
	ref := newRef()
	for i := 0; i < 60000; i++ {
		// Bias offsets toward word (32-address) and chunk (2048-address)
		// boundaries, where the fast path must bail out correctly.
		base := rng.Uint64() % 4096
		switch rng.Intn(4) {
		case 0:
			base = base&^31 + uint64(rng.Intn(40)) // around word boundaries
		case 1:
			base = 2048 - uint64(rng.Intn(24)) // around the chunk boundary
		}
		base += trafficChunks[rng.Intn(len(trafficChunks))] << chunkShift
		n := uint64(1 + rng.Intn(40)) // 1..40: crosses the 31-address limit
		lo, hi := base, base+n
		switch rng.Intn(6) {
		case 0, 1:
			got, want := b.Read(lo, hi), ref.Read(lo, hi)
			if got != want {
				t.Fatalf("op %d: Read(%#x,%#x) = %v, ref %v", i, lo, hi, got, want)
			}
		case 2, 3:
			got, want := b.Write(lo, hi), ref.Write(lo, hi)
			if got != want {
				t.Fatalf("op %d: Write(%#x,%#x) = %v, ref %v", i, lo, hi, got, want)
			}
		case 4:
			b.MarkRead(lo, hi)
			ref.MarkRead(lo, hi)
		default:
			if rng.Intn(8) == 0 {
				b.Reset()
				ref.Reset()
			} else {
				b.MarkWrite(lo, hi)
				ref.MarkWrite(lo, hi)
			}
		}
	}
}

// TestFastPathLaneSemantics pins the lane arithmetic at the exact fast-path
// boundaries: single addresses, a full 31-address run at word offset 0/1,
// and a range whose last lane is the word's top lane.
func TestFastPathLaneSemantics(t *testing.T) {
	b := New(new(int64))
	// 31 addresses starting at a word boundary: fast path (2*31 = 62 bits).
	if b.Write(0, 31) {
		t.Fatal("fresh 31-address write cannot be same-epoch")
	}
	if !b.Write(0, 31) {
		t.Fatal("repeat 31-address write must be same-epoch")
	}
	// One address shy of full coverage is not same-epoch.
	if b.Write(0, 32) {
		t.Fatal("write extending past covered range must not be same-epoch")
	}
	// Read sees the writes as coverage (need = read|write).
	if !b.Read(0, 32) {
		t.Fatal("read of fully written range must be same-epoch")
	}
	// Top lane of a word: addresses 31 (bits 62,63).
	b.Reset()
	if b.Write(31, 32) {
		t.Fatal("fresh top-lane write cannot be same-epoch")
	}
	if !b.Write(31, 32) {
		t.Fatal("repeat top-lane write must be same-epoch")
	}
	if b.Write(30, 31) {
		t.Fatal("neighbouring lane must be unaffected")
	}
	// Reset clears lazily but completely.
	b.Reset()
	if b.Read(31, 32) {
		t.Fatal("read after Reset must not be same-epoch")
	}
}
