package sampling

import (
	"sync"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/workloads"
)

func TestColdRegionsFullyAnalyzed(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 10})
	for i := 0; i < 10; i++ {
		s.Read(0, uint64(i), 4, 5)
	}
	if c.Reads != 10 {
		t.Errorf("first burst must be fully forwarded: %d", c.Reads)
	}
}

func TestHotRegionsDecay(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 4, Decay: 2})
	for i := 0; i < 100000; i++ {
		s.Write(0, uint64(i%256), 4, 9) // bounded range: regions go hot
	}
	if s.Rate() > 0.2 {
		t.Errorf("hot region rate too high: %.3f", s.Rate())
	}
	if s.Rate() < 0.001 {
		t.Errorf("rate fell below the floor: %.5f", s.Rate())
	}
	if f, _ := s.Counts(); c.Writes != f {
		t.Errorf("forwarded mismatch: %d vs %d", c.Writes, f)
	}
}

func TestPerRegionIndependence(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 8})
	// Heat up region 1.
	for i := 0; i < 10000; i++ {
		s.Write(0, uint64(i), 4, 1)
	}
	before := c.Writes
	// A cold region still gets its full first burst.
	for i := 0; i < 8; i++ {
		s.Write(0, uint64(i), 4, 2)
	}
	if c.Writes-before != 8 {
		t.Errorf("cold region throttled by a hot one: %d", c.Writes-before)
	}
}

func TestSyncAlwaysForwarded(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{})
	for i := 0; i < 100; i++ {
		s.Acquire(0, 1)
		s.Release(0, 1)
	}
	if c.Acquires != 100 || c.Releases != 100 {
		t.Error("synchronization must never be sampled away")
	}
}

// Sampling must never invent races: wrapping FastTrack can only shrink the
// report set (the synchronization skeleton stays exact).
func TestSamplingNeverInventsRaces(t *testing.T) {
	for _, name := range []string{"ffmpeg", "hmmsearch", "pbzip2"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		full := detector.New(detector.Config{Granularity: detector.Byte})
		sim.Run(spec.Program(), full, sim.Options{Seed: 42})
		fullAddrs := map[uint64]bool{}
		for _, r := range full.Races() {
			fullAddrs[r.Addr] = true
		}

		under := detector.New(detector.Config{Granularity: detector.Byte})
		sampled := New(under, Options{BurstLength: 8, Decay: 4})
		sim.Run(spec.Program(), sampled, sim.Options{Seed: 42})
		for _, r := range under.Races() {
			if !fullAddrs[r.Addr] {
				t.Errorf("%s: sampling invented a race at %#x", name, r.Addr)
			}
		}
		_, skipped := sampled.Counts()
		if sampled.Rate() >= 1 && skipped == 0 && name != "hmmsearch" {
			t.Errorf("%s: sampler never throttled (rate %.3f)", name, sampled.Rate())
		}
	}
}

// The cold-region hypothesis in action: a race in rarely executed code is
// still caught at a low overall sampling rate.
func TestColdRaceStillCaught(t *testing.T) {
	prog := sim.Program{Name: "coldrace", Main: func(m *sim.Thread) {
		a := m.Go(func(w *sim.Thread) {
			w.At(1) // hot loop
			for i := 0; i < 50000; i++ {
				w.Write(0x1000+uint64(i%64)*4, 4)
			}
			w.At(2) // cold racy site
			w.Write(0x9000, 4)
		})
		b := m.Go(func(w *sim.Thread) {
			w.At(1)
			for i := 0; i < 50000; i++ {
				w.Write(0x2000+uint64(i%64)*4, 4)
			}
			w.At(3) // cold racy site
			w.Write(0x9000, 4)
		})
		m.Join(a)
		m.Join(b)
	}}
	under := detector.New(detector.Config{Granularity: detector.Byte})
	s := New(under, Options{BurstLength: 4, Decay: 4})
	sim.Run(prog, s, sim.Options{Seed: 3})
	if s.Rate() > 0.05 {
		t.Errorf("sampler barely sampled: rate %.3f", s.Rate())
	}
	if len(under.Races()) != 1 {
		t.Errorf("cold race missed at %.3f%% sampling: %v", 100*s.Rate(), under.Races())
	}
}

// A 100% budget must be a pure pass-through: every access forwarded and
// no sampling state (or counters) touched, so wrapping is byte-identical
// to not wrapping.
func TestFullBudgetPassThrough(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{RatePermille: 1000})
	for i := 0; i < 5000; i++ {
		s.Write(0, uint64(i), 4, event.PC(i%7))
	}
	if c.Writes != 5000 {
		t.Fatalf("pass-through dropped accesses: %d/5000", c.Writes)
	}
	f, sk := s.Counts()
	if f != 0 || sk != 0 {
		t.Errorf("pass-through touched counters: forwarded=%d skipped=%d", f, sk)
	}
	if s.Rate() != 1 {
		t.Errorf("pass-through rate = %v, want 1", s.Rate())
	}
}

// A global budget caps the run-wide forwarded fraction: hot regions
// converge on the budget and the credit check holds the overall rate at
// it (untouched cold regions' first bursts are the only excess).
func TestGlobalBudgetCapsRate(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 10, RatePermille: 50}) // 5% budget
	for i := 0; i < 200000; i++ {
		// 32 sites over a bounded address range: every (site, block)
		// region is hot, so the credit check governs the whole run.
		s.Write(0, uint64(i%1024), 4, event.PC(i%32))
	}
	if r := s.Rate(); r > 0.055 {
		t.Errorf("budgeted rate %.4f exceeds 5%% budget (+ cold-burst slack)", r)
	} else if r < 0.005 {
		t.Errorf("budgeted rate %.4f collapsed far below budget", r)
	}
}

// SetRatePermille is the controller's live knob: dropping the rate
// mid-run throttles; restoring 1000 returns to pass-through.
func TestSetRateLiveTransition(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{RatePermille: 1000})
	for i := 0; i < 1000; i++ {
		s.Write(0, uint64(i), 4, 1)
	}
	if c.Writes != 1000 {
		t.Fatalf("full-rate lane dropped accesses: %d", c.Writes)
	}
	s.SetRatePermille(10)
	before := c.Writes
	for i := 0; i < 100000; i++ {
		s.Write(0, uint64(i%256), 4, 1) // bounded range: regions go hot
	}
	if got := c.Writes - before; got > 5000 {
		t.Errorf("throttled lane forwarded %d/100000 (want ≲1%%+burst)", got)
	}
}

// The skip path must not allocate: once a region is hot, skipping its
// accesses is one load and one store of its state.
func TestSkipPathZeroAlloc(t *testing.T) {
	s := New(event.Nop{}, Options{BurstLength: 4, RatePermille: 1})
	for i := 0; i < 10000; i++ {
		s.Write(0, uint64(i), 4, 7) // heat the region well past its bursts
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Write(0, 0x100, 4, 7)
	})
	if allocs != 0 {
		t.Errorf("skip path allocates %.1f per op, want 0", allocs)
	}
}

// The sampler is single-owner (event.Sink: one event in flight at a
// time), so the concurrency it has to survive is its readers': one
// producer streams accesses through several table doublings while one
// goroutine sweeps the budget, as the controller's ack goroutines do, and
// another polls Rate and RatePermille, as a /metrics scrape does. Run
// under -race in CI.
func TestConcurrentProducers(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 8, RatePermille: 100})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Budgeted rates only: pass-through would count nothing.
		for {
			for r := uint32(10); r <= 910; r += 90 {
				select {
				case <-stop:
					return
				default:
				}
				s.SetRatePermille(r)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := s.Rate(); r < 0 || r > 1 {
				t.Errorf("Rate %v outside [0, 1]", r)
			}
			if p := s.RatePermille(); p < 10 || p > 910 {
				t.Errorf("RatePermille %d outside the sweep", p)
			}
		}
	}()
	const n = 40000
	for i := 0; i < n; i++ {
		// Hot sites plus a cold tail of fresh sites: the tail takes the
		// region table through several doublings.
		pc := event.PC(i % 16)
		if i%5 == 0 {
			pc = event.PC(1000 + i)
		}
		s.Write(0, uint64(i), 4, pc)
		s.Read(1, uint64(i), 4, pc)
		if i%1000 == 0 {
			s.Acquire(0, 1)
			s.Release(0, 1)
		}
	}
	close(stop)
	wg.Wait()

	if len(s.slots) < 8*initialSlots {
		t.Errorf("region table has %d slots, want at least three doublings", len(s.slots))
	}
	f, sk := s.Counts()
	if f+sk != 2*n {
		t.Errorf("forwarded+skipped = %d, want the %d accesses sent", f+sk, 2*n)
	}
	if got := c.Reads + c.Writes; f != got {
		t.Errorf("forwarded %d, downstream saw %d accesses", f, got)
	}
	if c.Acquires != n/1000 || c.Releases != n/1000 {
		t.Errorf("sync dropped: %d acquires, %d releases", c.Acquires, c.Releases)
	}
	if want := float64(f) / float64(f+sk); s.Rate() != want {
		t.Errorf("Rate %v after Counts, want %v", s.Rate(), want)
	}
}

// A region whose insert brings the table to 75% load triggers a doubling;
// its first access's state must survive into the new table, so its
// forward/skip sequence equals that of a region inserted away from a
// doubling. Unbudgeted, so only the region's own state decides.
func TestGrowKeepsInsertingRegion(t *testing.T) {
	sequence := func(fill int) (seq string, grew bool) {
		c := &event.Counter{}
		s := New(c, Options{BurstLength: 4})
		for i := 0; i < fill; i++ {
			s.Write(0, 0, 4, event.PC(100+i)) // one access per fresh region
		}
		size := len(s.slots)
		var b []byte
		for i := 0; i < 64; i++ {
			before := c.Writes
			s.Write(0, 0x1000, 4, 7)
			if c.Writes != before {
				b = append(b, 'F')
			} else {
				b = append(b, '.')
			}
		}
		return string(b), len(s.slots) > size
	}
	want, grew := sequence(10)
	if grew {
		t.Fatal("10 regions doubled the table")
	}
	// The inserts before the doublings to 2048, 4096 and 8192 slots.
	for _, fill := range []int{767, 1535, 3071} {
		got, grew := sequence(fill)
		if !grew {
			t.Fatalf("after %d regions the next insert did not double the table", fill)
		}
		if got != want {
			t.Errorf("after %d regions, the inserting region decided\n%s\nwant\n%s", fill, got, want)
		}
	}
}

// Go-native sync (channels, WaitGroups) is never sampled away either.
func TestGoSyncAlwaysForwarded(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{RatePermille: 1})
	for i := 0; i < 50; i++ {
		s.ChanSend(0, 1, 1)
		s.ChanRecv(1, 1, 1)
		s.WGAdd(0, 2, 1)
		s.WGDone(1, 2)
		s.WGWait(0, 2)
	}
	if c.ChanSends != 50 || c.ChanRecvs != 50 || c.WGAdds != 50 ||
		c.WGDones != 50 || c.WGWaits != 50 {
		t.Errorf("Go-native sync sampled away: %+v", *c)
	}
}
