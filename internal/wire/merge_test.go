package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomReport(rng *rand.Rand, shard uint64) Report {
	var r Report
	nr := rng.Intn(6)
	for i := 0; i < nr; i++ {
		// Addresses are tagged with the shard so shard race sets are
		// disjoint, as they are for a real address-space partition.
		r.Races = append(r.Races, ReportRace{
			Kind:    uint8(rng.Intn(4)),
			Addr:    shard<<32 | uint64(rng.Intn(1<<16)),
			Size:    uint32(1 << uint(rng.Intn(4))),
			Tid:     int32(rng.Intn(8)),
			PC:      uint32(rng.Intn(1 << 12)),
			PrevTid: int32(rng.Intn(8)),
			PrevPC:  uint32(rng.Intn(1 << 12)),
		})
	}
	r.Events = uint64(rng.Intn(1 << 20))
	r.LastSeq = uint64(rng.Intn(1 << 10))
	r.Stats = ReportStats{
		Accesses:           uint64(rng.Intn(1 << 20)),
		SameEpoch:          uint64(rng.Intn(1 << 20)),
		NonShared:          uint64(rng.Intn(1 << 16)),
		HashPeakBytes:      int64(rng.Intn(1 << 20)),
		VCPeakBytes:        int64(rng.Intn(1 << 20)),
		BitmapPeakBytes:    int64(rng.Intn(1 << 16)),
		TotalPeakBytes:     int64(rng.Intn(1 << 21)),
		Races:              uint64(nr),
		Suppressed:         uint64(rng.Intn(1 << 8)),
		SharingComparisons: uint64(rng.Intn(1 << 16)),
		NodesPeak:          int64(rng.Intn(1 << 12)),
		AvgSharing:         1 + rng.Float64()*3,
		NodeAllocs:         uint64(rng.Intn(1 << 16)),
		LocCreations:       uint64(rng.Intn(1 << 16)),
		Merges:             uint64(rng.Intn(1 << 12)),
		Splits:             uint64(rng.Intn(1 << 12)),
	}
	return r
}

// reportsEqual compares reports with a tolerance on the one float field.
func reportsEqual(t *testing.T, a, b Report) bool {
	t.Helper()
	as, bs := a.Stats, b.Stats
	if math.Abs(as.AvgSharing-bs.AvgSharing) > 1e-9 {
		return false
	}
	as.AvgSharing, bs.AvgSharing = 0, 0
	a.Stats, b.Stats = as, bs
	if len(a.Races) == 0 {
		a.Races = nil
	}
	if len(b.Races) == 0 {
		b.Races = nil
	}
	return reflect.DeepEqual(a, b)
}

func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomReport(rng, 1)
		b := randomReport(rng, 2)
		ab := MergeReports(a, b)
		ba := MergeReports(b, a)
		if !reportsEqual(t, ab, ba) {
			t.Fatalf("trial %d: merge not commutative\nab=%+v\nba=%+v", trial, ab, ba)
		}
	}
}

func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := randomReport(rng, 1)
		b := randomReport(rng, 2)
		c := randomReport(rng, 3)
		left := MergeReports(MergeReports(a, b), c)
		right := MergeReports(a, MergeReports(b, c))
		flat := MergeReports(a, b, c)
		if !reportsEqual(t, left, right) {
			t.Fatalf("trial %d: (a·b)·c != a·(b·c)\nleft=%+v\nright=%+v", trial, left, right)
		}
		if !reportsEqual(t, left, flat) {
			t.Fatalf("trial %d: nested merge != flat merge", trial)
		}
	}
}

func TestMergeStatsSumsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	reports := make([]Report, 5)
	for i := range reports {
		reports[i] = randomReport(rng, uint64(i+1))
	}
	m := MergeReports(reports...)

	sum := func(f func(ReportStats) uint64) (s uint64) {
		for _, r := range reports {
			s += f(r.Stats)
		}
		return
	}
	sumI := func(f func(ReportStats) int64) (s int64) {
		for _, r := range reports {
			s += f(r.Stats)
		}
		return
	}

	intChecks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Accesses", m.Stats.Accesses, sum(func(s ReportStats) uint64 { return s.Accesses })},
		{"SameEpoch", m.Stats.SameEpoch, sum(func(s ReportStats) uint64 { return s.SameEpoch })},
		{"NonShared", m.Stats.NonShared, sum(func(s ReportStats) uint64 { return s.NonShared })},
		{"Races", m.Stats.Races, sum(func(s ReportStats) uint64 { return s.Races })},
		{"Suppressed", m.Stats.Suppressed, sum(func(s ReportStats) uint64 { return s.Suppressed })},
		{"SharingComparisons", m.Stats.SharingComparisons, sum(func(s ReportStats) uint64 { return s.SharingComparisons })},
		{"NodeAllocs", m.Stats.NodeAllocs, sum(func(s ReportStats) uint64 { return s.NodeAllocs })},
		{"LocCreations", m.Stats.LocCreations, sum(func(s ReportStats) uint64 { return s.LocCreations })},
		{"Merges", m.Stats.Merges, sum(func(s ReportStats) uint64 { return s.Merges })},
		{"Splits", m.Stats.Splits, sum(func(s ReportStats) uint64 { return s.Splits })},
	}
	for _, c := range intChecks {
		if c.got != c.want {
			t.Errorf("%s: got %d want %d", c.name, c.got, c.want)
		}
	}
	byteChecks := []struct {
		name string
		got  int64
		want int64
	}{
		{"HashPeakBytes", m.Stats.HashPeakBytes, sumI(func(s ReportStats) int64 { return s.HashPeakBytes })},
		{"VCPeakBytes", m.Stats.VCPeakBytes, sumI(func(s ReportStats) int64 { return s.VCPeakBytes })},
		{"BitmapPeakBytes", m.Stats.BitmapPeakBytes, sumI(func(s ReportStats) int64 { return s.BitmapPeakBytes })},
		{"TotalPeakBytes", m.Stats.TotalPeakBytes, sumI(func(s ReportStats) int64 { return s.TotalPeakBytes })},
		{"NodesPeak", m.Stats.NodesPeak, sumI(func(s ReportStats) int64 { return s.NodesPeak })},
	}
	for _, c := range byteChecks {
		if c.got != c.want {
			t.Errorf("%s: got %d want %d", c.name, c.got, c.want)
		}
	}

	var events, lastSeq uint64
	for _, r := range reports {
		events += r.Events
		lastSeq += r.LastSeq
	}
	if m.Events != events {
		t.Errorf("Events: got %d want %d", m.Events, events)
	}
	if m.LastSeq != lastSeq {
		t.Errorf("LastSeq: got %d want %d", m.LastSeq, lastSeq)
	}
	if got := len(m.Races); uint64(got) != m.Stats.Races {
		t.Errorf("race list length %d != summed Stats.Races %d", got, m.Stats.Races)
	}
}

func TestMergeAvgSharingWeighted(t *testing.T) {
	a := Report{Stats: ReportStats{NodesPeak: 100, AvgSharing: 2.0}}
	b := Report{Stats: ReportStats{NodesPeak: 300, AvgSharing: 4.0}}
	m := MergeReports(a, b)
	want := (2.0*100 + 4.0*300) / 400
	if math.Abs(m.Stats.AvgSharing-want) > 1e-12 {
		t.Fatalf("AvgSharing: got %v want %v", m.Stats.AvgSharing, want)
	}
	// Zero-node members contribute nothing; the other side's figure wins.
	z := MergeReports(Report{}, b)
	if z.Stats.AvgSharing != 4.0 {
		t.Fatalf("zero-weight merge: got %v want 4.0", z.Stats.AvgSharing)
	}
}

func TestMergeRaceOrderCanonical(t *testing.T) {
	// The same races arriving in any member assignment and any order must
	// produce a byte-identical merged list.
	races := []ReportRace{
		{Kind: 1, Addr: 0x2000, Tid: 3, PC: 40},
		{Kind: 0, Addr: 0x1000, Tid: 1, PC: 10},
		{Kind: 2, Addr: 0x1000, Tid: 1, PC: 10},
		{Kind: 0, Addr: 0x1000, Tid: 2, PC: 30},
		{Kind: 0, Addr: 0x1000, Tid: 1, PC: 20},
	}
	split1 := MergeReports(Report{Races: races[:2]}, Report{Races: races[2:]})
	split2 := MergeReports(Report{Races: races[3:]}, Report{Races: races[:3]})
	one := MergeReports(Report{Races: append([]ReportRace(nil), races...)})
	if !reflect.DeepEqual(split1.Races, split2.Races) || !reflect.DeepEqual(split1.Races, one.Races) {
		t.Fatalf("merge order not canonical:\n%v\n%v\n%v", split1.Races, split2.Races, one.Races)
	}
	for i := 1; i < len(one.Races); i++ {
		a, b := one.Races[i-1], one.Races[i]
		less := a.Addr < b.Addr ||
			(a.Addr == b.Addr && (a.Kind < b.Kind ||
				(a.Kind == b.Kind && (a.Tid < b.Tid ||
					(a.Tid == b.Tid && a.PC < b.PC)))))
		if !less {
			t.Fatalf("races not in canonical order at %d: %v then %v", i, a, b)
		}
	}
}

func TestMergeZeroAndIdentity(t *testing.T) {
	var zero Report
	m := MergeReports()
	if !reportsEqual(t, m, zero) {
		t.Fatalf("empty merge: got %+v", m)
	}
	rng := rand.New(rand.NewSource(3))
	r := randomReport(rng, 1)
	id := r.Merge(Report{})
	want := MergeReports(r)
	if !reportsEqual(t, id, want) {
		t.Fatalf("zero report is not the merge identity:\ngot  %+v\nwant %+v", id, want)
	}
}
