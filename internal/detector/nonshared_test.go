package detector

import (
	"testing"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestNonSharedFilter: accesses in the stack region are dropped before any
// shadow work — the first line of Figure 3.
func TestNonSharedFilter(t *testing.T) {
	d := New(Config{Granularity: Dynamic})
	stack := event.StackBase + 0x100
	d.Write(0, stack, 8, 1)
	d.Read(1, stack, 8, 2) // would race if tracked
	st := d.Stats()
	if st.NonShared != 2 {
		t.Errorf("NonShared = %d, want 2", st.NonShared)
	}
	if st.Accesses != 0 {
		t.Errorf("filtered accesses counted as shared: %d", st.Accesses)
	}
	if st.Plane.NodesCur != 0 {
		t.Errorf("shadow state created for stack accesses: %d nodes", st.Plane.NodesCur)
	}
	if len(d.Races()) != 0 {
		t.Errorf("stack accesses raced: %v", d.Races())
	}
}

// TestStackAccessesPublish: stack accesses count toward the publication
// interval like shared ones, so a stretch of them cannot leave
// detector_nonshared_total behind its Stats twin until the run ends —
// neither on the Sink path nor through a columnar batch.
func TestStackAccessesPublish(t *testing.T) {
	m := NewMetrics(telemetry.New())
	d := New(Config{Granularity: Dynamic, Metrics: m})
	stack := event.StackBase + 0x100
	for i := 0; i < publishEvery-1; i++ {
		d.Write(0, stack, 8, 1)
	}
	if got := m.NonShared.Load(); got != 0 {
		t.Fatalf("published %d before the interval was reached", got)
	}
	d.Read(0, stack, 8, 1)
	if got := m.NonShared.Load(); got != publishEvery {
		t.Fatalf("after %d stack accesses the counter reads %d", publishEvery, got)
	}

	c := &event.Cols{}
	for i := 0; i < 2*publishEvery; i++ {
		c.Append(event.ReadRec(0, stack, 8, 1))
	}
	d.ApplyCols(c)
	if got := m.NonShared.Load(); got != 3*publishEvery {
		t.Fatalf("after a columnar batch of %d stack reads the counter reads %d, want %d",
			2*publishEvery, got, 3*publishEvery)
	}
}

// TestThreadLocalAddressesAreNonShared: the engine's Local helper yields
// per-thread addresses inside the filtered region.
func TestThreadLocalAddressesAreNonShared(t *testing.T) {
	d := New(Config{Granularity: Dynamic})
	sim.Run(sim.Program{Name: "locals", Main: func(m *sim.Thread) {
		a := m.Go(func(w *sim.Thread) {
			for i := 0; i < 50; i++ {
				w.Write(w.Local(0), 8) // same offset as the sibling's
				w.Read(w.Local(0), 8)
			}
		})
		b := m.Go(func(w *sim.Thread) {
			for i := 0; i < 50; i++ {
				w.Write(w.Local(0), 8)
			}
		})
		m.Join(a)
		m.Join(b)
	}}, d, sim.Options{Seed: 1})
	if len(d.Races()) != 0 {
		t.Errorf("thread-local accesses raced: %v", d.Races())
	}
	if st := d.Stats(); st.NonShared != 150 {
		t.Errorf("NonShared = %d, want 150", st.NonShared)
	}
}

// Distinct threads get distinct stack windows.
func TestLocalWindowsDisjoint(t *testing.T) {
	var a0, a1 uint64
	sim.Run(sim.Program{Name: "windows", Main: func(m *sim.Thread) {
		a0 = m.Local(0x10)
		c := m.Go(func(w *sim.Thread) { a1 = w.Local(0x10) })
		m.Join(c)
	}}, event.Nop{}, sim.Options{})
	if a0 == a1 {
		t.Error("thread stack windows overlap")
	}
	if !event.NonShared(a0) || !event.NonShared(a1) {
		t.Error("Local addresses must be in the non-shared region")
	}
}
