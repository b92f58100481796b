package dyngran

import (
	"testing"
	"testing/quick"

	"repro/internal/fasttrack"
	"repro/internal/shadow"
	"repro/internal/vc"
)

func newWritePlane() (*Plane, *Stats) {
	st := &Stats{}
	return NewPlane(WritePlane, st), st
}

func newReadPlane() (*Plane, *Stats) {
	st := &Stats{}
	return NewPlane(ReadPlane, st), st
}

func TestNewNodeCoversRange(t *testing.T) {
	p, st := newWritePlane()
	n := p.NewNode(0x100, 0x108, Init)
	n.W = vc.MakeEpoch(0, 1)
	for a := uint64(0x100); a < 0x108; a++ {
		if p.Tab.Get(a) != n {
			t.Fatalf("slot %#x not set", a)
		}
	}
	if st.NodesCur != 1 || st.NodesPeak != 1 || st.LiveLocs != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSameHistoryPerPlane(t *testing.T) {
	wp, _ := newWritePlane()
	a := &Node{W: vc.MakeEpoch(0, 1)}
	b := &Node{W: vc.MakeEpoch(0, 1)}
	c := &Node{W: vc.MakeEpoch(1, 1)}
	if !wp.SameHistory(a, b) || wp.SameHistory(a, c) {
		t.Error("write-plane history comparison broken")
	}
	rp, _ := newReadPlane()
	d := &Node{R: fasttrack.Read{E: vc.MakeEpoch(0, 2)}}
	e := &Node{R: fasttrack.Read{E: vc.MakeEpoch(0, 2)}}
	f := &Node{R: fasttrack.Read{E: vc.MakeEpoch(1, 2)}}
	if !rp.SameHistory(d, e) || rp.SameHistory(d, f) {
		t.Error("read-plane history comparison broken")
	}
}

func TestFirstEpochShareMergesInitNeighbors(t *testing.T) {
	p, st := newWritePlane()
	e := vc.MakeEpoch(0, 1)
	a := p.NewNode(0x100, 0x104, Init)
	a.W = e
	b := p.NewNode(0x104, 0x108, Init)
	b.W = e
	merged := p.TryFirstEpochShare(b)
	if merged != a {
		t.Fatal("fresh node should fold into its Init predecessor")
	}
	if merged.Lo != 0x100 || merged.Hi != 0x108 || merged.Locs != 2 {
		t.Errorf("merged = [%#x,%#x) locs=%d", merged.Lo, merged.Hi, merged.Locs)
	}
	if !merged.InitShared {
		t.Error("merged node must be 1st-Epoch-Shared")
	}
	if p.Tab.Get(0x105) != merged {
		t.Error("slots not repointed")
	}
	if st.NodesCur != 1 || st.LiveLocs != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFirstEpochShareAcrossSmallGap(t *testing.T) {
	p, _ := newWritePlane()
	e := vc.MakeEpoch(0, 1)
	a := p.NewNode(0x100, 0x104, Init)
	a.W = e
	// 4-byte padding gap, within the search distance.
	b := p.NewNode(0x108, 0x10c, Init)
	b.W = e
	if got := p.TryFirstEpochShare(b); got != a {
		t.Error("nearest predecessor within the search distance must be found")
	}
}

func TestFirstEpochShareRespectsSearchDistance(t *testing.T) {
	p, _ := newWritePlane()
	e := vc.MakeEpoch(0, 1)
	a := p.NewNode(0x100, 0x104, Init)
	a.W = e
	b := p.NewNode(0x110, 0x114, Init) // 12-byte gap: beyond the bound
	b.W = e
	if got := p.TryFirstEpochShare(b); got != b {
		t.Error("neighbours beyond the search distance must not merge")
	}
}

func TestFirstEpochShareRequiresInitAndEqualClock(t *testing.T) {
	p, _ := newWritePlane()
	a := p.NewNode(0x100, 0x104, Private) // already settled
	a.W = vc.MakeEpoch(0, 1)
	b := p.NewNode(0x104, 0x108, Init)
	b.W = vc.MakeEpoch(0, 1)
	if got := p.TryFirstEpochShare(b); got != b {
		t.Error("a non-Init neighbour must not temporarily share")
	}
	c := p.NewNode(0x108, 0x10c, Init)
	c.W = vc.MakeEpoch(0, 2) // different clock
	if got := p.TryFirstEpochShare(c); got != c || c.InitShared {
		t.Error("different clocks must not share")
	}
}

func TestFirstEpochShareNeverCrossesBlocks(t *testing.T) {
	p, _ := newWritePlane()
	e := vc.MakeEpoch(0, 1)
	a := p.NewNode(shadow.BlockSize-4, shadow.BlockSize, Init)
	a.W = e
	b := p.NewNode(shadow.BlockSize, shadow.BlockSize+4, Init)
	b.W = e
	if got := p.TryFirstEpochShare(b); got != b {
		t.Error("sharing must not cross an indexing-block boundary")
	}
}

func TestDecideSecondEpochSharesWithSettledNeighbor(t *testing.T) {
	p, _ := newWritePlane()
	e := vc.MakeEpoch(1, 2)
	a := p.NewNode(0x100, 0x104, Private)
	a.W = e
	b := p.NewNode(0x104, 0x108, Init)
	b.W = e
	got := p.DecideSecondEpoch(b)
	if got != a || got.State != Shared {
		t.Fatalf("expected merge into Shared, got %v state=%v", got, got.State)
	}
	if got.Lo != 0x100 || got.Hi != 0x108 {
		t.Errorf("range [%#x,%#x)", got.Lo, got.Hi)
	}
}

func TestDecideSecondEpochIgnoresInitNeighbors(t *testing.T) {
	p, _ := newWritePlane()
	e := vc.MakeEpoch(1, 2)
	a := p.NewNode(0x100, 0x104, Init) // neighbour still in its first epoch
	a.W = e
	b := p.NewNode(0x104, 0x108, Init)
	b.W = e
	got := p.DecideSecondEpoch(b)
	if got != b || got.State != Private {
		t.Error("Init neighbours are not eligible for the final decision")
	}
}

func TestDecideSecondEpochBothSides(t *testing.T) {
	p, st := newWritePlane()
	e := vc.MakeEpoch(1, 2)
	l := p.NewNode(0x100, 0x104, Shared)
	l.W = e
	r := p.NewNode(0x108, 0x10c, Private)
	r.W = e
	mid := p.NewNode(0x104, 0x108, Init)
	mid.W = e
	got := p.DecideSecondEpoch(mid)
	if got.Lo != 0x100 || got.Hi != 0x10c || got.State != Shared {
		t.Errorf("three-way merge failed: [%#x,%#x) %v", got.Lo, got.Hi, got.State)
	}
	if st.NodesCur != 1 || st.LiveLocs != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSplitMiddle(t *testing.T) {
	p, st := newWritePlane()
	n := p.NewNode(0x100, 0x110, Init)
	n.W = vc.MakeEpoch(0, 1)
	n.Locs = 4
	st.LiveLocs = 4 // simulate four folded locations

	mid := p.Split(n, 0x104, 0x108)
	if mid.Lo != 0x104 || mid.Hi != 0x108 || mid.Locs != 1 {
		t.Errorf("mid = [%#x,%#x) locs=%d", mid.Lo, mid.Hi, mid.Locs)
	}
	if p.Tab.Get(0x100) == mid || p.Tab.Get(0x108) == mid {
		t.Error("side slots must not point at the carved node")
	}
	if p.Tab.Get(0x105) != mid {
		t.Error("carved slots must point at the carved node")
	}
	left := p.Tab.Get(0x100)
	right := p.Tab.Get(0x108)
	if left == nil || right == nil || left == right {
		t.Fatal("both sides must survive as distinct nodes")
	}
	if left.W != n.W || right.W != mid.W {
		t.Error("sides keep the original clock")
	}
	if st.NodesCur != 3 {
		t.Errorf("nodes = %d, want 3", st.NodesCur)
	}
}

func TestSplitAtEdges(t *testing.T) {
	p, _ := newWritePlane()
	n := p.NewNode(0x100, 0x110, Init)
	n.W = vc.MakeEpoch(0, 1)

	// Carving the left edge leaves only a right remainder.
	mid := p.Split(n, 0x100, 0x104)
	if mid.Lo != 0x100 || mid.Hi != 0x104 {
		t.Errorf("mid = [%#x,%#x)", mid.Lo, mid.Hi)
	}
	rest := p.Tab.Get(0x104)
	if rest == nil || rest == mid || rest.Lo != 0x104 || rest.Hi != 0x110 {
		t.Errorf("remainder wrong: %+v", rest)
	}
	// Carving an exact-range node returns it unchanged.
	same := p.Split(rest, 0x104, 0x110)
	if same != rest {
		t.Error("exact split must reuse the node")
	}
}

func TestSetRaceDissolvesSharing(t *testing.T) {
	p, _ := newWritePlane()
	n := p.NewNode(0x100, 0x110, Shared)
	n.W = vc.MakeEpoch(0, 3)
	n.Locs = 4

	mid := p.SetRace(n, 0x104, 0x108)
	if mid.State != Race || !mid.Reported {
		t.Errorf("carved location: state=%v reported=%v", mid.State, mid.Reported)
	}
	left := p.Tab.Get(0x100)
	right := p.Tab.Get(0x108)
	if left.State != Race || right.State != Race {
		t.Error("formerly-sharing locations must enter Race")
	}
	if left.Reported || right.Reported {
		t.Error("neighbours' own first races must stay reportable")
	}
	if left == mid || right == mid || left == right {
		t.Error("sharing must be dissolved into private clocks")
	}
}

func TestSetRaceOnExactPrivateNode(t *testing.T) {
	p, _ := newWritePlane()
	n := p.NewNode(0x200, 0x204, Private)
	n.W = vc.MakeEpoch(0, 1)
	got := p.SetRace(n, 0x200, 0x204)
	if got != n || got.State != Race || !got.Reported {
		t.Error("exact-range race must mark the node itself")
	}
}

func TestDropRangeWhole(t *testing.T) {
	p, st := newWritePlane()
	n := p.NewNode(0x100, 0x120, Init)
	n.W = vc.MakeEpoch(0, 1)
	p.DropRange(0x100, 0x120)
	if st.NodesCur != 0 {
		t.Errorf("nodes = %d", st.NodesCur)
	}
	if p.Tab.Get(0x110) != nil {
		t.Error("slots must be cleared")
	}
}

func TestDropRangePartial(t *testing.T) {
	p, st := newWritePlane()
	n := p.NewNode(0x100, 0x120, Init)
	n.W = vc.MakeEpoch(0, 1)
	// Free the middle: the node straddles both boundaries.
	p.DropRange(0x108, 0x118)
	left := p.Tab.Get(0x100)
	right := p.Tab.Get(0x118)
	if left == nil || right == nil {
		t.Fatal("surviving ranges lost their nodes")
	}
	if left.Hi != 0x108 || right.Lo != 0x118 {
		t.Errorf("ranges: left.Hi=%#x right.Lo=%#x", left.Hi, right.Lo)
	}
	if p.Tab.Get(0x110) != nil {
		t.Error("freed middle must be clear")
	}
	if st.NodesCur != 2 {
		t.Errorf("nodes = %d, want 2", st.NodesCur)
	}
}

// A first-epoch share across a gap leaves the gap inside the shared
// node's range; a gap address accessed later gets a node of its own.
// Range operations on the shared node must leave that node's slots alone.
func TestRangeOpsSkipForeignSlotsInGap(t *testing.T) {
	p, st := newWritePlane()
	e := vc.MakeEpoch(1, 1)
	a := p.NewNode(0x10b, 0x110, Init)
	a.W = e
	p.TryFirstEpochShare(a)
	b := p.NewNode(0x115, 0x11b, Init)
	b.W = e
	if p.TryFirstEpochShare(b) != a || a.Lo != 0x10b || a.Hi != 0x11b {
		t.Fatalf("gap share: a = [%#x, %#x)", a.Lo, a.Hi)
	}
	g := p.NewNode(0x110, 0x112, Init) // fills part of the gap
	g.W = vc.MakeEpoch(0, 3)
	p.TryFirstEpochShare(g)

	p.DropRange(0x10e, 0x110) // a straddles the freed range; its tail is cloned
	for addr := uint64(0x110); addr < 0x112; addr++ {
		if p.Tab.Get(addr) != g {
			t.Fatalf("slot %#x lost its node", addr)
		}
	}
	if st.NodesCur != 3 {
		t.Errorf("nodes = %d, want 3 (a, a's cloned tail, g)", st.NodesCur)
	}

	c := p.Split(p.Tab.Get(0x115), 0x115, 0x117) // carve out of the tail
	c.W = vc.MakeEpoch(0, 3)
	p.DecideSecondEpoch(c)
	if p.Tab.Get(0x110) != g || g.State != Init {
		t.Error("split of a gapped node overwrote the gap's node")
	}
}

func TestTryExtendLeft(t *testing.T) {
	p, st := newWritePlane()
	e := vc.MakeEpoch(0, 1)
	n := p.NewNode(0x100, 0x104, Init)
	n.W = e
	ext, ok := p.TryExtendLeft(0x104, 0x108, e, nil)
	if !ok || ext != n {
		t.Fatal("adjacent same-clock Init node must extend")
	}
	if n.Hi != 0x108 || n.Locs != 2 || !n.InitShared {
		t.Errorf("extended node: hi=%#x locs=%d shared=%v", n.Hi, n.Locs, n.InitShared)
	}
	if st.NodeAllocs != 1 {
		t.Errorf("extension must not allocate: allocs=%d", st.NodeAllocs)
	}
	// Mismatched clock must refuse.
	if _, ok := p.TryExtendLeft(0x108, 0x10c, vc.MakeEpoch(1, 1), nil); ok {
		t.Error("clock mismatch must refuse extension")
	}
	// Non-adjacent must refuse.
	if _, ok := p.TryExtendLeft(0x10c, 0x110, e, nil); ok {
		t.Error("gap must refuse extension")
	}
	// Block boundary must refuse.
	edge := p.NewNode(shadow.BlockSize-4, shadow.BlockSize, Init)
	edge.W = e
	if _, ok := p.TryExtendLeft(shadow.BlockSize, shadow.BlockSize+4, e, nil); ok {
		t.Error("extension must not cross an indexing block")
	}
}

func TestTryExtendLeftReadPlane(t *testing.T) {
	p, _ := newReadPlane()
	e := vc.MakeEpoch(2, 5)
	n := p.NewNode(0x100, 0x104, Init)
	n.R = fasttrack.Read{E: e}
	fresh := fasttrack.Read{E: e}
	if _, ok := p.TryExtendLeft(0x104, 0x108, 0, &fresh); !ok {
		t.Error("read plane extension with equal representation must work")
	}
	other := fasttrack.Read{E: vc.MakeEpoch(0, 5)}
	if _, ok := p.TryExtendLeft(0x108, 0x10c, 0, &other); ok {
		t.Error("different read representation must refuse")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Init: "Init", Shared: "Shared", Private: "Private", Race: "Race",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// Property: under arbitrary sequences of plane operations, the structural
// invariants hold: every set slot's node covers that slot's address, and
// the accounted node count equals the number of distinct live nodes.
func TestQuickPlaneInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		p, st := newWritePlane()
		clockOf := func(op uint16) vc.Epoch { return vc.MakeEpoch(vc.TID(op%2), vc.Clock(op%3+1)) }
		for _, op := range ops {
			lo := uint64(op % 200)
			hi := lo + uint64(op%7) + 1
			switch op % 5 {
			case 0, 1: // create + first-epoch share (only on fresh ranges,
				// the detector's actual precondition)
				free := true
				for a := lo; a < hi; a++ {
					if p.Tab.Get(a) != nil {
						free = false
						break
					}
				}
				if free {
					nn := p.NewNode(lo, hi, Init)
					nn.W = clockOf(op)
					p.TryFirstEpochShare(nn)
				}
			case 2: // split + decide
				if n := p.Tab.Get(lo); n != nil && n.Lo <= lo && n.Hi >= hi {
					c := p.Split(n, lo, hi)
					c.W = clockOf(op)
					p.DecideSecondEpoch(c)
				}
			case 3: // race
				if n := p.Tab.Get(lo); n != nil && n.Lo <= lo && n.Hi >= hi {
					p.SetRace(n, lo, hi)
				}
			case 4: // free
				p.DropRange(lo, hi)
			}
		}
		// Invariant 1: slot consistency.
		distinct := map[*Node]bool{}
		okAll := true
		p.Tab.ForRange(0, 256, func(addr uint64, n *Node) bool {
			distinct[n] = true
			if addr < n.Lo || addr >= n.Hi {
				okAll = false
				return false
			}
			return true
		})
		if !okAll {
			return false
		}
		// Invariant 2: node accounting matches live distinct nodes.
		return st.NodesCur == int64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
