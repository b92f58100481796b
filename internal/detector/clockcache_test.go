package detector

import (
	"testing"
)

// The thread-clock cache (Detector.now) holds the accessing thread's clock
// and epoch between sync events. These tests run every clock-changing Sink
// method between two accesses by the cached thread: an epoch-starting
// method that left the cache in place would hand the second access a stale
// epoch, and an acquire-style one that replaced the thread's clock object
// would leave the cache on the old time. Either changes the verdict.

const (
	cacheA, cacheB = 0, 1
	cacheX, cacheY = 0x1000, 0x2000
)

// TestClockCacheEpochStart: A writes x, runs an op that starts its next
// epoch, and writes x again; B then absorbs the publication the op made
// (so it is ordered after A's first write only) and writes x. A stale
// epoch would fold A's second write into its first, hiding the race.
func TestClockCacheEpochStart(t *testing.T) {
	cases := []struct {
		name   string
		op     func(d *Detector) // A's epoch-starting op
		absorb func(d *Detector) // B absorbs what the op published
	}{
		{"Release",
			func(d *Detector) { d.Release(cacheA, 1) },
			func(d *Detector) { d.Acquire(cacheB, 1) }},
		{"ReleaseShared",
			func(d *Detector) { d.ReleaseShared(cacheA, 1) },
			func(d *Detector) { d.Acquire(cacheB, 1) }},
		{"Fork",
			func(d *Detector) { d.Fork(cacheA, cacheB) },
			func(d *Detector) {}}, // the child inherits at the fork
		{"BarrierArrive",
			func(d *Detector) { d.BarrierArrive(cacheA, 1) },
			func(d *Detector) { d.BarrierDepart(cacheB, 1) }},
		{"ChanSend",
			func(d *Detector) { d.ChanSend(cacheA, 1, 1) },
			func(d *Detector) { d.ChanRecv(cacheB, 1, 1) }},
		{"ChanRecv",
			func(d *Detector) { d.ChanRecv(cacheA, 1, 0) },
			func(d *Detector) { d.ChanAck(cacheB, 1, 0) }},
		{"WGDone",
			func(d *Detector) { d.WGDone(cacheA, 1) },
			func(d *Detector) { d.WGWait(cacheB, 1) }},
	}
	for _, c := range cases {
		d := New(Config{Granularity: Dynamic})
		d.Write(cacheA, cacheX, 4, 1)
		c.op(d)
		d.Write(cacheA, cacheX, 4, 2)
		c.absorb(d)
		d.Write(cacheB, cacheX, 4, 3)
		races := d.Races()
		if len(races) != 1 || races[0].Addr != cacheX || races[0].Tid != cacheB || races[0].PrevTid != cacheA {
			t.Errorf("%s: races %v, want one race at %#x between threads %d and %d",
				c.name, races, cacheX, cacheB, cacheA)
		}
	}
}

// TestClockCacheAbsorb: B reads y (caching its clock), absorbs A's
// publication through an acquire-style op, then reads x, which A wrote
// before publishing. The op joins into B's clock in place; a cache that
// kept B's pre-absorb time would report a race that does not exist.
func TestClockCacheAbsorb(t *testing.T) {
	cases := []struct {
		name    string
		publish func(d *Detector) // A publishes after writing x
		op      func(d *Detector) // B absorbs the publication
	}{
		{"Acquire",
			func(d *Detector) { d.Release(cacheA, 1) },
			func(d *Detector) { d.Acquire(cacheB, 1) }},
		{"AcquireShared",
			func(d *Detector) { d.Release(cacheA, 1) },
			func(d *Detector) { d.AcquireShared(cacheB, 1) }},
		{"Join",
			func(d *Detector) {}, // A is the finished child
			func(d *Detector) { d.Join(cacheB, cacheA) }},
		{"BarrierDepart",
			func(d *Detector) { d.BarrierArrive(cacheA, 1) },
			func(d *Detector) { d.BarrierDepart(cacheB, 1) }},
		{"ChanAck",
			func(d *Detector) { d.ChanRecv(cacheA, 1, 0) },
			func(d *Detector) { d.ChanAck(cacheB, 1, 0) }},
		{"WGWait",
			func(d *Detector) { d.WGDone(cacheA, 1) },
			func(d *Detector) { d.WGWait(cacheB, 1) }},
	}
	for _, c := range cases {
		d := New(Config{Granularity: Dynamic})
		d.Acquire(cacheA, 9)
		d.Release(cacheA, 9)
		d.Write(cacheA, cacheX, 4, 1)
		c.publish(d)
		d.Read(cacheB, cacheY, 4, 2)
		c.op(d)
		d.Read(cacheB, cacheX, 4, 3)
		if races := d.Races(); len(races) != 0 {
			t.Errorf("%s: races %v, want none", c.name, races)
		}
	}
}
