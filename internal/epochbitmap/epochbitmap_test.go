package epochbitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFirstAccessIsNotSameEpoch(t *testing.T) {
	b := New(new(int64))
	if b.Read(0x100, 0x104) {
		t.Error("first read cannot be same-epoch")
	}
	if b.Read(0x200, 0x201) {
		t.Error("first read of another address cannot be same-epoch")
	}
}

func TestRepeatIsSameEpoch(t *testing.T) {
	b := New(new(int64))
	b.Read(0x100, 0x104)
	if !b.Read(0x100, 0x104) {
		t.Error("repeated read must be same-epoch")
	}
	b.Write(0x100, 0x104)
	// The write above was the first write (the read bits don't satisfy it)…
	if !b.Write(0x100, 0x104) {
		t.Error("…but the repeat must be")
	}
}

func TestWriteDoesNotCountAsRead(t *testing.T) {
	b := New(new(int64))
	if b.Write(0x50, 0x54) {
		t.Error("first write cannot be same-epoch")
	}
	// A read after a write in the same epoch needs no further checking.
	if !b.Read(0x50, 0x54) {
		t.Error("read after write is same-epoch")
	}
}

func TestReadDoesNotSatisfyWrite(t *testing.T) {
	b := New(new(int64))
	b.Read(0x60, 0x64)
	if b.Write(0x60, 0x64) {
		t.Error("a write after only reads must not be filtered")
	}
}

func TestPartialCoverageIsNotSameEpoch(t *testing.T) {
	b := New(new(int64))
	b.Read(0x100, 0x104)
	if b.Read(0x102, 0x106) {
		t.Error("partially covered range must not be same-epoch")
	}
	if !b.Read(0x100, 0x106) {
		t.Error("now the union is covered")
	}
}

func TestResetClearsEverything(t *testing.T) {
	b := New(new(int64))
	b.Read(0x100, 0x108)
	b.Write(0x100, 0x108)
	b.Reset()
	if b.Read(0x100, 0x108) {
		t.Error("reads must be forgotten after Reset")
	}
	b.Reset()
	if b.Write(0x100, 0x108) {
		t.Error("writes must be forgotten after Reset")
	}
}

func TestMarkCoversWithoutTesting(t *testing.T) {
	b := New(new(int64))
	b.MarkRead(0x1000, 0x1080)
	if !b.Read(0x1010, 0x1018) {
		t.Error("marked range must read as same-epoch")
	}
	if b.Write(0x1010, 0x1018) {
		t.Error("MarkRead must not cover writes")
	}
	b.MarkWrite(0x2000, 0x2080)
	if !b.Write(0x2010, 0x2018) {
		t.Error("marked range must write as same-epoch")
	}
}

func TestCrossChunkRanges(t *testing.T) {
	b := New(new(int64))
	lo := uint64(chunkAddrs - 8)
	hi := uint64(chunkAddrs + 8)
	if b.Write(lo, hi) {
		t.Error("first cross-chunk write cannot be same-epoch")
	}
	if !b.Write(lo, hi) {
		t.Error("repeat cross-chunk write must be same-epoch")
	}
	if !b.Write(lo+2, hi-2) {
		t.Error("covered sub-range must be same-epoch")
	}
}

func TestAccountingRetainsChunks(t *testing.T) {
	b := New(new(int64))
	if b.Bytes() != 0 {
		t.Fatal("fresh bitmap accounts nothing")
	}
	b.Read(0, 1)
	one := b.Bytes()
	if one <= 0 {
		t.Fatal("chunk not accounted")
	}
	b.Read(uint64(chunkAddrs*5), uint64(chunkAddrs*5)+1)
	if b.Bytes() != 2*one {
		t.Errorf("two chunks expected: %d vs %d", b.Bytes(), 2*one)
	}
	b.Reset()
	if b.Bytes() != 2*one {
		t.Error("Reset keeps chunk storage (lazy clearing)")
	}
}

// Bitmaps built on one running total add every chunk they retain to it, so
// the total always equals the sum of their Bytes.
func TestSharedRunningTotal(t *testing.T) {
	var total int64
	a, b := New(&total), New(&total)
	a.Write(0, 8)
	b.Read(0, 8)
	a.Write(uint64(chunkAddrs*3), uint64(chunkAddrs*3)+4)
	a.Reset()
	// Same chunk in a new epoch: no growth.
	a.Write(0, 8)
	// A range across a chunk boundary adds the second chunk.
	b.MarkRead(uint64(chunkAddrs)-2, uint64(chunkAddrs)+2)
	if total != a.Bytes()+b.Bytes() {
		t.Fatalf("total %d, bitmaps %d + %d", total, a.Bytes(), b.Bytes())
	}
	if a.Bytes() != b.Bytes() || a.Bytes() == 0 {
		t.Fatalf("each bitmap holds two chunks: %d vs %d", a.Bytes(), b.Bytes())
	}
}

// Property: the bitmap agrees with a per-address map model across random
// operations and resets.
func TestQuickAgainstModel(t *testing.T) {
	type state struct{ r, w bool }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(new(int64))
		ref := map[uint64]state{}
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0:
				b.Reset()
				ref = map[uint64]state{}
			default:
				lo := uint64(rng.Intn(4096))
				hi := lo + uint64(rng.Intn(8)) + 1
				write := rng.Intn(2) == 0
				var got, want bool
				if write {
					got = b.Write(lo, hi)
					want = true
					for a := lo; a < hi; a++ {
						if !ref[a].w {
							want = false
						}
					}
					for a := lo; a < hi; a++ {
						s := ref[a]
						s.w = true
						ref[a] = s
					}
				} else {
					got = b.Read(lo, hi)
					want = true
					for a := lo; a < hi; a++ {
						if !ref[a].r && !ref[a].w {
							want = false
						}
					}
					for a := lo; a < hi; a++ {
						s := ref[a]
						s.r = true
						ref[a] = s
					}
				}
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
