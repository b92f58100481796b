package vc

import (
	"math/rand"
	"testing"
)

// mirror pairs a Task with the general vector clock the same operation
// sequence builds, for pointwise differential checks.
type mirror struct {
	k *Task
	v *VC
}

// snapVal pairs a published snapshot with the dense clone a general-mode
// publication would have queued.
type snapVal struct {
	s *Snap
	v *VC
}

func checkMirror(t *testing.T, step int, ms []mirror) {
	t.Helper()
	for _, m := range ms {
		for u := 0; u < len(ms); u++ {
			if got, want := m.k.Get(TID(u)), m.v.Get(TID(u)); got != want {
				t.Fatalf("step %d: task %d: Get(%d) = %d, general says %d",
					step, m.k.TID(), u, got, want)
			}
		}
	}
}

// TestTaskDifferentialRandom drives random publish/absorb/join sequences
// through the compact representation and a general vector-clock mirror and
// demands pointwise-equal Get at every step — the verdict-preservation
// property the detector relies on, exercised over interleavings (base
// swaps, delta chains, in-place merges, chain folds) no fixed workload
// pins down.
func TestTaskDifferentialRandom(t *testing.T) {
	const threads = 9
	const steps = 4000
	rng := rand.New(rand.NewSource(7))

	a := NewArena()
	ms := make([]mirror, threads)
	for i := range ms {
		ms[i] = mirror{k: a.NewTask(TID(i), nil), v: New(threads)}
		ms[i].v.Set(TID(i), 1)
	}
	var queue []snapVal
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // publish
			m := ms[rng.Intn(threads)]
			queue = append(queue, snapVal{s: m.k.Publish(), v: m.v.Clone()})
			m.v.Inc(m.k.TID())
		case op < 8 && len(queue) > 0: // absorb a random queued publication
			i := rng.Intn(len(queue))
			m := ms[rng.Intn(threads)]
			m.k.Absorb(queue[i].s)
			m.v.Join(queue[i].v)
		case len(queue) > 0: // release a random queued publication
			i := rng.Intn(len(queue))
			a.Release(queue[i].s)
			queue[i] = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
		}
		if step%97 == 0 {
			checkMirror(t, step, ms)
		}
	}
	// Terminal snapshots: every thread joins into thread 0.
	for _, m := range ms[1:] {
		f := m.k.Final()
		ms[0].k.Absorb(f)
		ms[0].v.Join(m.v)
		a.Release(f)
	}
	checkMirror(t, steps, ms)

	// MaterializeInto must rebuild the same dense value.
	for _, m := range ms {
		v := New(threads)
		m.k.MaterializeInto(v)
		for u := 0; u < threads; u++ {
			if v.Get(TID(u)) != m.v.Get(TID(u)) {
				t.Fatalf("materialized task %d differs at %d", m.k.TID(), u)
			}
		}
	}

	// Everything released: the arena must account zero live bytes.
	for _, sv := range queue {
		a.Release(sv.s)
	}
	for _, m := range ms {
		a.FreeTask(m.k)
	}
	if n := a.LiveBytes(); n != 0 {
		t.Errorf("arena leaks %d bytes after releasing everything", n)
	}
}

// TestChainStaysCompact replays the hub-and-spoke channel pattern (one
// receiver, many senders over a bounded queue, slot-reuse back edges) and
// pins the property the chain folds exist for: live compact state stays a
// small multiple of the thread count, not of the publication count — a
// regression guard against publication history piling up in the snapshot
// chains.
func TestChainStaysCompact(t *testing.T) {
	const workers = 48
	const rounds = 200
	const capacity = 8

	a := NewArena()
	hub := a.NewTask(0, nil)
	spokes := make([]*Task, workers)
	for w := range spokes {
		spokes[w] = a.NewTask(TID(w+1), hub.Publish())
	}
	var sendq, recvq []*Snap
	sends := 0
	for r := 0; r < rounds; r++ {
		for _, sp := range spokes {
			if sends >= capacity {
				s := recvq[0]
				recvq = recvq[1:]
				sp.Absorb(s)
				a.Release(s)
			}
			sends++
			sendq = append(sendq, sp.Publish())
			s := sendq[0]
			sendq = sendq[1:]
			hub.Absorb(s)
			a.Release(s)
			recvq = append(recvq, hub.Publish())
		}
	}
	// Generous linear budget: a few snapshots' worth of state per thread.
	// Publication count is 100x larger; history piling up blows way past it.
	budget := int64((workers + 1) * 6 * (snapHdrBytes + taskHdrBytes))
	if live := a.LiveBytes(); live > budget {
		t.Errorf("live compact state %dB exceeds linear budget %dB after %d publications",
			live, budget, 2*workers*rounds)
	}
	if peak := a.PeakBytes(); peak > 2*budget {
		t.Errorf("peak compact state %dB exceeds budget %dB", peak, 2*budget)
	}
}

// TestTaskCoversMatchesGeneral checks covers, the floor-table shortcut of
// Epoch.LEQ, against the dense clock the same operations build, across
// publications, absorbs (base swaps included) and releases: covers(t, c)
// must equal c <= v[t] for values below, at and above the true component.
func TestTaskCoversMatchesGeneral(t *testing.T) {
	const threads = 12 // more than the floor table's slots, so slots collide
	rng := rand.New(rand.NewSource(11))
	a := NewArena()
	ms := make([]mirror, threads)
	for i := range ms {
		ms[i] = mirror{k: a.NewTask(TID(i), nil), v: New(threads)}
		ms[i].v.Set(TID(i), 1)
	}
	var queue []snapVal
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			m := ms[rng.Intn(threads)]
			queue = append(queue, snapVal{s: m.k.Publish(), v: m.v.Clone()})
			m.v.Inc(m.k.TID())
		case op < 8 && len(queue) > 0:
			i := rng.Intn(len(queue))
			m := ms[rng.Intn(threads)]
			m.k.Absorb(queue[i].s)
			m.v.Join(queue[i].v)
		case len(queue) > 0:
			i := rng.Intn(len(queue))
			a.Release(queue[i].s)
			queue[i] = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
		}
		m := ms[rng.Intn(threads)]
		u := TID(rng.Intn(threads))
		want := m.v.Get(u)
		for _, c := range []Clock{want - 1, want, want + 1} {
			if c == 0 {
				continue
			}
			if got := MakeEpoch(u, c).LEQ(m.k); got != (c <= want) {
				t.Fatalf("step %d: task %d: LEQ(%d@%d) = %v, general component %d",
					step, m.k.TID(), c, u, got, want)
			}
		}
	}

	// A recycled task starts without floors: the previous owner's view of
	// thread 1 says nothing about the new owner's.
	s := ms[1].k.Publish()
	ms[0].k.Absorb(s)
	a.Release(s)
	if !MakeEpoch(1, 1).LEQ(ms[0].k) {
		t.Fatal("task 0 absorbed thread 1's publication but does not cover 1@1")
	}
	a.FreeTask(ms[0].k)
	if k := a.NewTask(0, nil); MakeEpoch(1, 1).LEQ(k) {
		t.Fatal("a recycled task kept its previous owner's floor for thread 1")
	}
}
