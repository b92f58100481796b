// Tests and benchmark for the free() path at scale: DropRange visits each
// slot of the freed range once and collects each node once, so a free costs
// O(slots) however many nodes the range holds.
package dyngran

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/shadow"
	"repro/internal/vc"
)

// The collection mark lives in Node's padding; a bigger node would cost
// every slab and freelist entry memory.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 64", got)
	}
}

// fillBlocks lays out, in each of blocks consecutive indexing blocks from
// base, a hole-merged node (two runs around a hole owned by another node),
// 22 single-location nodes and, except in the last block, a node crossing
// into the next block. It returns the live node count.
func fillBlocks(p *Plane, base uint64, blocks int) int {
	for b := 0; b < blocks; b++ {
		blk := base + uint64(b)*shadow.BlockSize
		first := p.NewNode(blk+4, blk+12, Init)
		first.W = vc.MakeEpoch(0, 1)
		second := p.NewNode(blk+20, blk+28, Init)
		second.W = vc.MakeEpoch(0, 1)
		p.Merge(first, second) // [blk+4, blk+28) with a hole at [blk+12, blk+20)
		hole := p.NewNode(blk+12, blk+20, Init)
		hole.W = vc.MakeEpoch(1, 1)
		for a := blk + 32; a < blk+120; a += 4 {
			p.NewNode(a, a+4, Private).W = vc.MakeEpoch(0, 2)
		}
		if b < blocks-1 {
			p.NewNode(blk+124, blk+132, Private).W = vc.MakeEpoch(1, 2)
		}
	}
	return blocks*25 - 1
}

// TestDropRangeManyNodesReleasedOnce frees a multi-block range holding
// thousands of nodes — hole-merged nodes in every block, nodes crossing
// block boundaries — and checks every node is released exactly once, in
// first-slot order.
func TestDropRangeManyNodesReleasedOnce(t *testing.T) {
	const base, blocks = 0x10000, 128
	p, st := newWritePlane()
	live := fillBlocks(p, base, blocks)
	end := uint64(base + blocks*shadow.BlockSize)
	if st.NodesCur != int64(live) {
		t.Fatalf("NodesCur = %d before the drop, want %d", st.NodesCur, live)
	}
	var order []*Node
	seen := map[*Node]bool{}
	p.Tab.ForRange(base, end, func(_ uint64, n *Node) bool {
		if !seen[n] {
			seen[n] = true
			order = append(order, n)
		}
		return true
	})
	if len(order) != live {
		t.Fatalf("%d distinct nodes in the range, want %d", len(order), live)
	}
	freeBefore := len(p.free)

	p.DropRange(base, end)

	released := p.free[freeBefore:]
	if len(released) != live {
		t.Fatalf("%d nodes released, want %d", len(released), live)
	}
	dup := map[*Node]bool{}
	for _, n := range p.free {
		if dup[n] {
			t.Fatalf("node %p is on the freelist twice", n)
		}
		dup[n] = true
	}
	for i, n := range released {
		if n != order[i] {
			t.Fatalf("release %d out of first-slot order", i)
		}
		if *n != (Node{}) {
			t.Fatalf("released node %d not zeroed: %+v", i, *n)
		}
	}
	if st.NodesCur != 0 || st.LiveLocs != 0 || st.VCBytesCur != 0 {
		t.Fatalf("after the drop: NodesCur %d, LiveLocs %d, VCBytesCur %d, want 0",
			st.NodesCur, st.LiveLocs, st.VCBytesCur)
	}
	if n := p.Tab.Entries(); n != 0 {
		t.Fatalf("%d indexing blocks left after the drop, want 0", n)
	}
}

// TestDropRangeClearsMarksOfSurvivors frees a range that cuts nodes at both
// ends: the survivors must come out unmarked, so a later drop collects
// them again.
func TestDropRangeClearsMarksOfSurvivors(t *testing.T) {
	p, st := newWritePlane()
	left := p.NewNode(0x100, 0x110, Private)
	right := p.NewNode(0x118, 0x128, Private)
	p.DropRange(0x108, 0x120)
	if left.collected || right.collected {
		t.Fatal("a surviving node kept its collection mark")
	}
	if left.Hi != 0x108 || right.Lo != 0x120 || st.NodesCur != 2 {
		t.Fatalf("survivors [%#x,%#x) [%#x,%#x), NodesCur %d", left.Lo, left.Hi, right.Lo, right.Hi, st.NodesCur)
	}
	p.DropRange(0x100, 0x128)
	if st.NodesCur != 0 || st.LiveLocs != 0 {
		t.Fatalf("NodesCur %d, LiveLocs %d after dropping the survivors", st.NodesCur, st.LiveLocs)
	}
}

// BenchmarkDropRange frees n contiguous 4-byte private nodes in one call.
// The ns/node metric must stay flat as n grows: the collection is linear.
func BenchmarkDropRange(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			const base = 0x100000
			end := base + uint64(n)*4
			p, _ := newWritePlane()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for a := uint64(base); a < end; a += 4 {
					p.NewNode(a, a+4, Private)
				}
				b.StartTimer()
				p.DropRange(base, end)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}
