// Package dyngran implements the paper's contribution: dynamic detection
// granularity realized by sharing one vector clock among neighbouring memory
// locations (Section III). A shadow *Node* records the access history of a
// contiguous address range; all shadow slots in the range alias the node.
// Detection starts at byte (access-footprint) granularity and grows as
// neighbouring locations are found to carry the same clock.
//
// Each node carries the vector-clock state machine of Figure 2:
//
//	Init    — the location's first epoch; may be temporarily shared with a
//	          neighbour that is also in Init and has the same clock
//	          (sub-states 1st-Epoch-Shared / 1st-Epoch-Private).
//	Shared  — after the second-epoch access, the location shares its clock
//	          with a neighbour that has the same clock.
//	Private — after the second-epoch access, no neighbour matched.
//	Race    — a data race was found; sharing is dissolved and every
//	          formerly-sharing location gets a private clock.
//
// The sharing decision is made at most twice in a location's lifetime: once
// on first access and once on the second-epoch access. The same Node/Plane
// machinery also backs the fixed byte and word granularities (which simply
// never merge), so all granularities share one code path and one accounting
// scheme.
package dyngran

import (
	"repro/internal/event"
	"repro/internal/fasttrack"
	"repro/internal/shadow"
	"repro/internal/vc"
)

// State is the vector-clock state machine state of Figure 2.
type State uint8

const (
	// Init is the location's first epoch (since its first access).
	Init State = iota
	// Shared means the location shares its clock with neighbours.
	Shared
	// Private means the location owns its clock alone.
	Private
	// Race means a data race was found on the location.
	Race
)

func (s State) String() string {
	switch s {
	case Init:
		return "Init"
	case Shared:
		return "Shared"
	case Private:
		return "Private"
	case Race:
		return "Race"
	default:
		return "?"
	}
}

// Kind selects the access plane a Plane tracks. Read and write locations
// are maintained separately and only like-typed clocks are shared.
type Kind uint8

const (
	ReadPlane Kind = iota
	WritePlane
)

// Node is the shadow record of one location (or of several locations
// sharing a clock). It covers the address range [Lo, Hi).
type Node struct {
	// W is the FastTrack write epoch (write plane).
	W vc.Epoch
	// R is the adaptive read representation (read plane).
	R fasttrack.Read

	// Lo, Hi delimit the covered address range.
	Lo, Hi uint64
	// Locs counts how many first-access locations were folded into this
	// node; the Table 3 "avg sharing count" statistic derives from it.
	Locs int32

	// State is the Figure 2 state.
	State State
	// InitShared distinguishes 1st-Epoch-Shared from 1st-Epoch-Private
	// while State == Init.
	InitShared bool
	// Reported is set once the first race on this location is reported;
	// later races on it are not re-reported (the DJIT+ policy).
	Reported bool

	// Settled counts distinct-epoch accesses since the node entered the
	// Private state; the adaptive-resharing extension (Section VII future
	// work) re-runs the sharing decision when it reaches the configured
	// interval.
	Settled uint8

	// Hist packs the node's state-transition history, 2 bits per state,
	// newest in the low bits; HistLen counts recorded transitions (capped
	// at 16). Maintained by SetState at zero allocation cost so race
	// provenance can replay the Figure 2 path that led to a verdict.
	Hist    uint32
	HistLen uint8

	// collected marks a node DropRange has already gathered; it is set and
	// cleared within one DropRange call. It sits in padding: a Node stays
	// 64 bytes.
	collected bool

	// PC is the code site of the last recorded access, kept for reports.
	PC event.PC
}

// SetState records a state transition: the new state is pushed onto the
// packed history and becomes current. All state changes go through here
// (or through clone, which copies the history wholesale).
func (n *Node) SetState(s State) {
	n.Hist = n.Hist<<2 | uint32(s)
	if n.HistLen < 16 {
		n.HistLen++
	}
	n.State = s
}

// StateHistory decodes the recorded transitions, oldest first. Allocates;
// meant for the race-report path, not the hot path.
func (n *Node) StateHistory() []State {
	k := int(n.HistLen)
	out := make([]State, k)
	for i := 0; i < k; i++ {
		out[k-1-i] = State(n.Hist >> (2 * uint(i)) & 3)
	}
	return out
}

// Accounting object sizes, mirroring a C implementation the way the paper
// measures ("based on object size"): an epoch-bearing node is two words of
// clock plus range/state metadata.
const nodeBytes = 32

// bytes returns the node's accounted size including an inflated read vector.
func (n *Node) bytes() int64 { return nodeBytes + int64(n.R.Bytes()) }

// Stats aggregates the plane statistics the evaluation tables report.
type Stats struct {
	// NodesCur/NodesPeak track live clock-bearing nodes; NodesPeak is the
	// "Max. # of vector clocks" column of Table 3.
	NodesCur, NodesPeak int64
	// VCBytesCur/VCBytesPeak track clock storage for Table 2's "Vector
	// clock" column.
	VCBytesCur, VCBytesPeak int64
	// NodeAllocs counts node allocations (logical shadow-node creations;
	// the paper's "# of vector clock creations"); LocCreations counts
	// first-access location creations.
	NodeAllocs, LocCreations uint64
	// NodeRecycles counts NodeAllocs that were served from the plane's
	// freelist instead of the Go heap — the allocation-lean hot path's
	// effectiveness measure (NodeRecycles/NodeAllocs is the recycle rate).
	NodeRecycles uint64
	// LiveLocs is the number of locations currently represented by live
	// nodes; AvgSharingAtPeak is LiveLocs/NodesCur sampled whenever the
	// node count peaks — Table 3's "avg sharing count" (how many
	// locations share one vector clock).
	LiveLocs         int64
	AvgSharingAtPeak float64
	// Merges and Splits count sharing events and split events.
	Merges, Splits uint64
	// Races counts reported races (first per location).
	Races uint64
}

// locsDelta adjusts the live-location count.
func (s *Stats) locsDelta(d int64) {
	s.LiveLocs += d
	s.sampleSharing()
}

// sampleSharing refreshes the peak-time sharing ratio.
func (s *Stats) sampleSharing() {
	if s.NodesCur > 0 && s.NodesCur >= s.NodesPeak {
		s.AvgSharingAtPeak = float64(s.LiveLocs) / float64(s.NodesCur)
	}
}

// Plane is one access plane's shadow state: the Figure 4 indexing table
// plus allocation accounting. Nodes are allocated from per-plane arena
// slabs and recycled through a freelist: the split/merge/drop churn of the
// dynamic-granularity state machine reuses node memory instead of reaching
// the Go heap once per node. A plane is single-owner (one detector shard),
// so the freelist needs no synchronization.
type Plane struct {
	Kind Kind
	Tab  *shadow.Table[*Node]
	St   *Stats
	// Tally counts the plane's telemetry facts until the owning detector
	// publishes them (see Metrics.Publish).
	Tally Tally

	// pool serves vector-clock storage for cloned read vectors (may be
	// nil: plain heap allocation).
	pool *vc.Pool
	// free holds released nodes ready for reuse; arena is the tail of the
	// current allocation slab.
	free  []*Node
	arena []Node
	// scratch is DropRange's reusable collection buffer, so steady-state
	// Free events (malloc/free churn) never allocate.
	scratch []*Node
}

// arenaChunk is the slab size for node allocation: one heap allocation
// per 128 nodes instead of one per node.
const arenaChunk = 128

// NewPlane returns an empty plane of the given kind sharing stats st.
func NewPlane(kind Kind, st *Stats) *Plane {
	return &Plane{Kind: kind, Tab: shadow.New[*Node](), St: st}
}

// SetPool binds the plane's vector-clock storage (cloned read vectors) to
// pool p. Nil restores plain heap allocation.
func (p *Plane) SetPool(pl *vc.Pool) { p.pool = pl }

// alloc returns a zeroed node from the freelist (counted as a recycle) or
// the arena. Arena nodes and freelist nodes are both all-zero: slabs start
// zeroed and release() zeroes before pushing.
func (p *Plane) alloc() *Node {
	if k := len(p.free); k > 0 {
		n := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		p.St.NodeRecycles++
		p.Tally.NodeRecycles++
		return n
	}
	if len(p.arena) == 0 {
		p.arena = make([]Node, arenaChunk)
	}
	n := &p.arena[0]
	p.arena = p.arena[1:]
	return n
}

// SameHistory reports whether two nodes carry the same vector clock in this
// plane's sense — the sharing precondition.
func (p *Plane) SameHistory(a, b *Node) bool {
	if p.Kind == WritePlane {
		return a.W == b.W
	}
	return a.R.Equal(&b.R)
}

// account registers allocation (+) or release (-) of a node's storage,
// including the locations the node represents.
func (p *Plane) account(n *Node, sign int64) {
	p.St.VCBytesCur += sign * n.bytes()
	p.St.NodesCur += sign
	p.St.LiveLocs += sign * int64(n.Locs)
	if sign < 0 {
		p.Tally.NodeReleases++
	}
	if sign > 0 {
		p.St.NodeAllocs++
		p.Tally.NodeAllocs++
		if p.St.NodesCur > p.St.NodesPeak {
			p.St.NodesPeak = p.St.NodesCur
		}
		if p.St.VCBytesCur > p.St.VCBytesPeak {
			p.St.VCBytesPeak = p.St.VCBytesCur
		}
	}
	p.St.sampleSharing()
}

// AccountInflation records that a node's read representation grew by delta
// bytes (epoch → vector inflation).
func (p *Plane) AccountInflation(delta int64) {
	p.St.VCBytesCur += delta
	if p.St.VCBytesCur > p.St.VCBytesPeak {
		p.St.VCBytesPeak = p.St.VCBytesCur
	}
}

// NewNode allocates a node covering [lo, hi), points the range's shadow
// slots at it, and accounts it. The caller fills in the clock afterwards.
func (p *Plane) NewNode(lo, hi uint64, state State) *Node {
	n := p.alloc()
	n.Lo, n.Hi, n.Locs = lo, hi, 1
	n.SetState(state)
	if state == Init {
		p.Tally.ToInit++
	}
	p.account(n, +1)
	p.Tab.SetRange(lo, hi, n)
	return n
}

// clone allocates a copy of n covering [lo, hi) with an independent clock
// (the read vector, if inflated, is shared copy-on-write through the
// plane's pool — either side's next mutation splits off its own array).
func (p *Plane) clone(n *Node, lo, hi uint64, locs int32) *Node {
	c := p.alloc()
	c.W = n.W
	c.R = n.R.CloneIn(p.pool)
	c.Lo, c.Hi = lo, hi
	c.Locs = locs
	c.State = n.State
	c.Hist, c.HistLen = n.Hist, n.HistLen
	c.InitShared = n.InitShared
	c.Reported = n.Reported
	c.PC = n.PC
	p.account(c, +1)
	p.Tab.ReplaceRange(lo, hi, n, c)
	return c
}

// release drops a node from accounting and recycles it: the inflated read
// vector (if any) returns to its pool, the node is zeroed and pushed onto
// the plane freelist. The caller must already have repointed or cleared
// every shadow slot that referenced n.
func (p *Plane) release(n *Node) {
	p.account(n, -1)
	n.R.Release()
	*n = Node{}
	p.free = append(p.free, n)
}

// owns reports whether any shadow slot in [lo, hi) points at n. A node's
// range can hold other nodes' slots: first-epoch sharing merges across
// unaccessed gaps (neighborSearchDist), and a gap address accessed later
// gets a node of its own. Range operations on n leave those slots alone.
func (p *Plane) owns(n *Node, lo, hi uint64) bool {
	found := false
	p.Tab.ForRange(lo, hi, func(_ uint64, m *Node) bool {
		found = m == n
		return !found
	})
	return found
}

// Split carves [lo, hi) out of node n (which must cover it) and returns the
// carved node, which owns an independent copy of n's clock. Remainders on
// either side keep sharing (among themselves) with n's original clock and
// state. Split reuses n for one of the resulting pieces to limit churn.
func (p *Plane) Split(n *Node, lo, hi uint64) *Node {
	p.St.Splits++
	p.Tally.Splits++
	if n.Lo == lo && n.Hi == hi {
		return n // nothing to carve
	}
	leftLive := lo > n.Lo && p.owns(n, n.Lo, lo)
	rightLive := hi < n.Hi && p.owns(n, hi, n.Hi)

	remainder := n.Locs - 1
	if remainder < 1 {
		remainder = 1
	}
	setLocs := func(v int32) {
		p.St.locsDelta(int64(v) - int64(n.Locs))
		n.Locs = v
	}
	switch {
	case leftLive && rightLive:
		// n keeps the left, a clone takes the right, a clone takes the middle.
		lshare := remainder / 2
		if lshare < 1 {
			lshare = 1
		}
		rshare := remainder - lshare
		if rshare < 1 {
			rshare = 1
		}
		p.clone(n, hi, n.Hi, rshare)
		mid := p.clone(n, lo, hi, 1)
		n.Hi = lo
		setLocs(lshare)
		return mid
	case leftLive:
		mid := p.clone(n, lo, hi, 1)
		n.Hi = lo
		setLocs(remainder)
		return mid
	case rightLive:
		mid := p.clone(n, lo, hi, 1)
		n.Lo = hi
		setLocs(remainder)
		return mid
	default:
		// No live remainder: n itself becomes the carved node.
		n.Lo, n.Hi = lo, hi
		setLocs(1)
		return n
	}
}

// Merge folds node src into dst (they must be neighbours with the same
// clock): every slot of src repoints to dst and dst's range grows to the
// union. Returns dst.
func (p *Plane) Merge(dst, src *Node) *Node {
	if dst == src {
		return dst
	}
	p.St.Merges++
	p.Tally.Merges++
	p.Tab.ReplaceRange(src.Lo, src.Hi, src, dst)
	if src.Lo < dst.Lo {
		dst.Lo = src.Lo
	}
	if src.Hi > dst.Hi {
		dst.Hi = src.Hi
	}
	dst.Locs += src.Locs
	p.St.locsDelta(int64(src.Locs))
	p.release(src)
	return dst
}

// neighborSearchDist bounds the "nearest predecessor/successor with a valid
// vector clock" search used for first-epoch sharing. C structs pad by at
// most 7 bytes, so 8 loses no realistic adjacency while staying O(1).
const neighborSearchDist = 8

// canMerge reports whether folding a and b would keep the combined range
// within one indexing block. Sharing is performed through a hash entry's
// indexing array (Figure 4), so a shared clock never spans entries; this
// bounds every range operation at m = 128 addresses and yields the paper's
// ≈32-location sharing ceiling (Table 3's pbzip2 row).
func canMerge(a, b *Node) bool {
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return lo/shadow.BlockSize == (hi-1)/shadow.BlockSize
}

// Neighbors returns the nodes nearest to the left of lo and right of hi
// within the first-epoch search distance (either may be nil).
func (p *Plane) Neighbors(lo, hi uint64) (left, right *Node) {
	if _, n, ok := p.Tab.PrevSet(lo, neighborSearchDist); ok {
		left = n
	}
	if _, n, ok := p.Tab.NextSet(hi, neighborSearchDist); ok {
		right = n
	}
	return left, right
}

// AdjacentNeighbors returns the nodes immediately adjacent to [lo, hi) —
// the second-epoch neighbours at L-size and L+size.
func (p *Plane) AdjacentNeighbors(lo, hi uint64) (left, right *Node) {
	if lo > 0 {
		left = p.Tab.Get(lo - 1)
	}
	right = p.Tab.Get(hi)
	return left, right
}

// TryExtendLeft is the fast path of first-epoch sharing for sequential
// initialization: when a fresh location [lo, hi) directly continues an Init
// node that ends at lo and carries exactly the history the new location
// would get (w for the write plane, r for the read plane), the node is
// extended in place — no allocation, no neighbour search. This is where
// dynamic granularity's "N× fewer vector clock creations" (Section V.A,
// pbzip2) comes from.
func (p *Plane) TryExtendLeft(lo, hi uint64, w vc.Epoch, r *fasttrack.Read) (*Node, bool) {
	if lo == 0 {
		return nil, false
	}
	left := p.Tab.Get(lo - 1)
	if left == nil || left.State != Init || left.Hi != lo {
		return nil, false
	}
	if left.Lo/shadow.BlockSize != (hi-1)/shadow.BlockSize {
		return nil, false
	}
	if p.Kind == WritePlane {
		if left.W != w {
			return nil, false
		}
	} else if left.R.Shared() || r == nil || !left.R.Equal(r) {
		return nil, false
	}
	p.Tab.SetRange(lo, hi, left)
	left.Hi = hi
	left.Locs++
	left.InitShared = true
	p.St.locsDelta(1)
	p.St.Merges++
	p.Tally.Merges++
	p.Tally.FirstShareTaken++
	return left, true
}

// TryFirstEpochShare attempts the temporary Init-state sharing for a fresh
// node n: a neighbour qualifies if it is in Init and has the same clock.
// On success n is folded into the neighbour. Returns the surviving node.
func (p *Plane) TryFirstEpochShare(n *Node) *Node {
	left, right := p.Neighbors(n.Lo, n.Hi)
	merged := n
	shared := false
	if left != nil && left != n && left.State == Init && canMerge(left, n) &&
		p.SameHistory(left, n) {
		merged = p.Merge(left, merged)
		shared = true
	}
	if right != nil && right != merged && right.State == Init && canMerge(merged, right) &&
		p.SameHistory(right, merged) {
		merged = p.Merge(merged, right)
		shared = true
	}
	merged.InitShared = merged.Locs > 1
	if shared {
		p.Tally.FirstShareTaken++
	} else {
		p.Tally.FirstShareRejected++
	}
	return merged
}

// DecideSecondEpoch makes the final sharing decision for node n after its
// second-epoch access updated its clock: share with an adjacent neighbour
// in Shared or Private state that has the same clock, else become Private.
// Returns the surviving node.
func (p *Plane) DecideSecondEpoch(n *Node) *Node {
	left, right := p.AdjacentNeighbors(n.Lo, n.Hi)
	merged := n
	shared := false
	if left != nil && left != n && (left.State == Shared || left.State == Private) &&
		canMerge(left, n) && p.SameHistory(left, n) {
		merged = p.Merge(left, merged)
		shared = true
	}
	if right != nil && right != merged && (right.State == Shared || right.State == Private) &&
		canMerge(merged, right) && p.SameHistory(merged, right) {
		merged = p.Merge(merged, right)
		shared = true
	}
	if shared {
		merged.SetState(Shared)
		p.Tally.ShareTaken++
		p.Tally.ToShared++
	} else {
		merged.SetState(Private)
		p.Tally.ShareRejected++
		p.Tally.ToPrivate++
	}
	merged.InitShared = false
	return merged
}

// SetRace carves [lo, hi) out of n, marks it Race/Reported, and dissolves
// any remaining sharing: formerly-sharing remainders also enter the Race
// state with private clocks (the paper's splitAndSetRace), but stay
// unreported so their own first race can still be reported.
func (p *Plane) SetRace(n *Node, lo, hi uint64) *Node {
	wasShared := n.Locs > 1 || n.Lo != lo || n.Hi != hi
	mid := p.Split(n, lo, hi)
	mid.SetState(Race)
	mid.InitShared = false
	mid.Reported = true
	p.Tally.ToRace++
	if wasShared {
		// Mark the split-off remainders Race as well.
		p.markRaceAround(lo, hi, mid)
	}
	return mid
}

// markRaceAround sets the nodes adjacent to [lo, hi) that resulted from the
// dissolved sharing into the Race state.
func (p *Plane) markRaceAround(lo, hi uint64, mid *Node) {
	if lo > 0 {
		if left := p.Tab.Get(lo - 1); left != nil && left != mid {
			if left.State != Race {
				p.Tally.ToRace++
				left.SetState(Race)
			}
			left.InitShared = false
		}
	}
	if right := p.Tab.Get(hi); right != nil && right != mid {
		if right.State != Race {
			p.Tally.ToRace++
			right.SetState(Race)
		}
		right.InitShared = false
	}
}

// DeflateReads resets the read representation of nodes whose reads are all
// ordered before tc back to the empty epoch — FastTrack's write-exclusive
// optimization: once a write dominates every read of a location, the
// inflated read vector carries no information the write epoch doesn't, so
// its storage can be reclaimed.
func (p *Plane) DeflateReads(lo, hi uint64, tc *vc.VC) {
	var last *Node
	p.Tab.ForRange(lo, hi, func(_ uint64, n *Node) bool {
		if n == last {
			return true
		}
		last = n
		if n.R.Shared() && n.R.LEQ(tc) {
			p.AccountInflation(-int64(n.R.Bytes()))
			n.R.Release() // vector storage back to its pool
		}
		return true
	})
}

// DropRange discards all shadow state in [lo, hi) — the free() path. Nodes
// fully inside the range are released; nodes straddling a boundary are
// shrunk. The cost is O(slots in the range): each slot is visited once and
// each node is collected once.
func (p *Plane) DropRange(lo, hi uint64) {
	// Collect each node once, in first-slot order. Adjacent-only dedup is
	// not enough: a merge of two pieces around an interior hole leaves a
	// node whose range contains slots owned by a later hole-filling node,
	// so the same node can appear in non-contiguous slot runs — and a
	// double release would push it onto the freelist twice (aliased
	// reuse). The node's collected mark makes the membership test O(1).
	nodes := p.scratch[:0]
	p.Tab.ForRange(lo, hi, func(_ uint64, n *Node) bool {
		if !n.collected {
			n.collected = true
			nodes = append(nodes, n)
		}
		return true
	})
	for _, n := range nodes {
		n.collected = false
		switch {
		case n.Lo >= lo && n.Hi <= hi:
			p.release(n)
			continue
		case n.Lo < lo && n.Hi > hi:
			// Straddles both ends: keep left in n, clone the right tail.
			if p.owns(n, hi, n.Hi) {
				p.clone(n, hi, n.Hi, 1)
			}
			n.Hi = lo
		case n.Lo < lo:
			n.Hi = lo
		default: // n.Hi > hi
			n.Lo = hi
		}
		if !p.owns(n, n.Lo, n.Hi) {
			p.release(n)
		}
	}
	for i := range nodes {
		nodes[i] = nil // drop references so released nodes aren't pinned
	}
	p.scratch = nodes[:0]
	p.Tab.ClearRange(lo, hi)
}

// AvgSharing returns the average number of locations sharing one clock
// node, sampled when the live node count peaked — Table 3's "Avg. sharing
// count".
func (s *Stats) AvgSharing() float64 {
	if s.AvgSharingAtPeak < 1 {
		return 1
	}
	return s.AvgSharingAtPeak
}
