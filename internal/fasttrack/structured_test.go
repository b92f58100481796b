package fasttrack

import (
	"testing"

	"repro/internal/event"
	"repro/internal/vc"
)

// TestStructuredFastPathZeroAlloc is the CI gate on the Go-native sync
// steady state with thread clocks bound to a vc.Pool, as the detector binds
// them: once tables, queue backing arrays and the pool's free lists are
// warm, a channel-handoff plus WaitGroup round must not allocate.
// Publications clone copy-on-write through the pool and are recycled when
// absorbed or replaced, and queue pops compact in place; an allocation
// here means one of those reuse paths regressed.
func TestStructuredFastPathZeroAlloc(t *testing.T) {
	ts := NewThreads()
	ts.SetPool(vc.NewPool())
	const ch = event.ChanID(0)
	const wg = event.WGID(0)
	cycle := func() {
		ts.ChanSend(1, ch, 4)
		ts.ChanRecv(2, ch, 4)
		ts.WGDone(1, wg)
		ts.WGWait(2, wg)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("Go-native sync fast path allocates %.1f times per cycle, want 0", n)
	}
}
