// Package vc implements the logical-time machinery underlying
// happens-before data race detection: growable vector clocks (Fidge/Mattern
// style, indexed by thread id) and FastTrack's packed epoch representation
// "c@t" that records a single (clock, thread) pair in one word.
//
// The conventions follow DJIT+ and FastTrack as described in Sections II–III
// of Song & Lee, "Efficient Data Race Detection for C/C++ Programs Using
// Dynamic Granularity" (IPPS 2014):
//
//   - Every thread t owns a vector clock T_t; T_t[t] is incremented at the
//     start of each new epoch (after every lock release).
//   - A lock s owns a vector clock L_s; release does L_s := L_s ⊔ T_t,
//     acquire does T_t := T_t ⊔ L_s.
//   - An access history entry is either a full vector clock or an epoch.
//
// Vector clocks grow on demand: index i beyond the current length reads as
// zero, so a clock over few threads stays small even in programs that later
// spawn many threads.
package vc

import (
	"fmt"
	"strings"
)

// TID identifies a virtual thread. Thread ids are small dense integers
// assigned in spawn order, which lets vector clocks be plain slices.
type TID int32

// Clock is a scalar logical clock value for one thread.
type Clock uint32

// NoTID marks an epoch that has no owner (e.g. "never written").
const NoTID TID = -1

// Epoch is FastTrack's packed last-access representation c@t: the upper 32
// bits hold the clock c, the lower 32 bits the thread id t. The zero Epoch
// is 0@0, which FastTrack treats as "no access yet" for writes because real
// accesses always carry clock ≥ 1 (threads start at clock 1).
type Epoch uint64

// MakeEpoch packs clock c of thread t into an Epoch.
func MakeEpoch(t TID, c Clock) Epoch {
	return Epoch(uint64(c)<<32 | uint64(uint32(t)))
}

// EpochNone is the "no access recorded" epoch.
const EpochNone Epoch = 0

// TID extracts the thread id of the epoch.
func (e Epoch) TID() TID { return TID(int32(uint32(e))) }

// Clock extracts the scalar clock of the epoch.
func (e Epoch) Clock() Clock { return Clock(e >> 32) }

// IsNone reports whether the epoch records no access.
func (e Epoch) IsNone() bool { return e == EpochNone }

// LEQ reports whether the access recorded by e happens-before-or-equals the
// receiver thread's clock v, i.e. e.Clock() <= v[e.TID()]. An empty epoch
// trivially happens before everything.
func (e Epoch) LEQ(v *VC) bool {
	if e.IsNone() {
		return true
	}
	return e.Clock() <= v.Get(e.TID())
}

// String renders the epoch as "c@t".
func (e Epoch) String() string {
	if e.IsNone() {
		return "⊥"
	}
	return fmt.Sprintf("%d@%d", e.Clock(), e.TID())
}

// VC is a growable vector clock. The zero value is the empty clock (all
// components zero). VC values are mutated in place by Join/Set/Inc; use
// Clone when an independent copy is needed.
//
// A clock may be bound to a Pool (pool != nil), in which case its backing
// array is recycled through the pool on growth and release, and it may
// share its backing array copy-on-write with other clocks (sh != nil and
// sh.refs > 1); every mutating method unshares first via owned(). Unbound
// zero-value clocks behave exactly as before.
type VC struct {
	c    []Clock
	sh   *shared // refcount header when the array is (or was) shared
	pool *Pool   // allocation home; nil = plain heap
}

// New returns an empty vector clock with capacity for n threads.
func New(n int) *VC {
	return &VC{c: make([]Clock, 0, n)}
}

// FromSlice builds a vector clock from explicit components (tests, examples).
func FromSlice(clocks ...Clock) *VC {
	v := &VC{c: make([]Clock, len(clocks))}
	copy(v.c, clocks)
	return v
}

// Len returns the number of stored components (trailing zeros may be
// omitted; Get beyond Len returns 0).
func (v *VC) Len() int { return len(v.c) }

// Get returns component t, which is zero for any thread the clock has not
// yet observed.
func (v *VC) Get(t TID) Clock {
	if int(t) < 0 || int(t) >= len(v.c) {
		return 0
	}
	return v.c[t]
}

// Set assigns component t, growing the clock as needed.
func (v *VC) Set(t TID, c Clock) {
	v.owned()
	v.grow(int(t) + 1)
	v.c[t] = c
}

// Inc increments component t by one and returns the new value.
func (v *VC) Inc(t TID) Clock {
	v.owned()
	v.grow(int(t) + 1)
	v.c[t]++
	return v.c[t]
}

// grow extends the clock to n components. Callers that mutate have already
// called owned(); grow itself only reallocates, recycling the old array
// through the pool when bound. Pooled arrays are zeroed at put, so exposing
// capacity with a reslice never reveals stale components.
func (v *VC) grow(n int) {
	if n <= len(v.c) {
		return
	}
	if n <= cap(v.c) {
		v.c = v.c[:n]
		return
	}
	want := max(n, 2*cap(v.c))
	var nc []Clock
	if v.pool != nil {
		nc = v.pool.rawSlice(want)[:n]
	} else {
		nc = make([]Clock, n, want)
	}
	copy(nc, v.c)
	old := v.c
	v.c = nc
	if sh := v.sh; sh != nil {
		// This header now owns a private copy; drop its share of the old
		// array (recycled only if we were the last holder).
		v.sh = nil
		v.pool.dropShare(sh, old)
	} else {
		v.pool.putSlice(old)
	}
}

// Join sets v to the element-wise maximum of v and o (v ⊔= o). This is the
// update applied on lock release (to the lock's clock) and on lock acquire
// (to the thread's clock).
func (v *VC) Join(o *VC) {
	v.owned()
	v.grow(len(o.c))
	for i, oc := range o.c {
		if oc > v.c[i] {
			v.c[i] = oc
		}
	}
}

// Assign overwrites v with a copy of o.
func (v *VC) Assign(o *VC) {
	v.owned()
	v.grow(len(o.c))
	// Zero the tail when shrinking: the backing array may later be
	// re-exposed by grow (within capacity), which must read as zeros.
	for i := len(o.c); i < len(v.c); i++ {
		v.c[i] = 0
	}
	v.c = v.c[:len(o.c)]
	copy(v.c, o.c)
}

// Clone returns an independent copy of v. Pool-bound clocks clone
// copy-on-write through their pool; unbound clocks get a plain deep copy.
func (v *VC) Clone() *VC {
	return v.CloneIn(v.pool)
}

// LEQ reports the pointwise order v ≤ o, i.e. every event v has observed is
// also observed by o. This realizes happens-before: a ≤ b for the recording
// clocks of two access histories means every access in a is ordered before b.
func (v *VC) LEQ(o *VC) bool {
	for i, c := range v.c {
		if c > o.Get(TID(i)) {
			return false
		}
	}
	return true
}

// Equal reports whether v and o denote the same logical time, treating
// missing trailing components as zero (the paper's "same size and contents
// of equal value" is satisfied up to trailing zeros, which are semantically
// identical).
func (v *VC) Equal(o *VC) bool {
	n := len(v.c)
	if len(o.c) > n {
		n = len(o.c)
	}
	for i := 0; i < n; i++ {
		if v.Get(TID(i)) != o.Get(TID(i)) {
			return false
		}
	}
	return true
}

// AnyGT returns the id of some thread t with v[t] > o[t], or NoTID when
// v ≤ o. Detectors use it to name the racing remote thread.
func (v *VC) AnyGT(o *VC) TID {
	for i, c := range v.c {
		if c > o.Get(TID(i)) {
			return TID(i)
		}
	}
	return NoTID
}

// Reset clears every component to zero, keeping capacity.
func (v *VC) Reset() {
	v.owned()
	for i := range v.c {
		v.c[i] = 0
	}
	v.c = v.c[:0]
}

// Bytes returns the accounting size of the clock's backing storage, used by
// the memory-overhead instrumentation (Table 2's "Vector clock" column
// counts object sizes).
func (v *VC) Bytes() int { return cap(v.c) * 4 }

// String renders the clock as "<c0, c1, ...>".
func (v *VC) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, c := range v.c {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", c)
	}
	b.WriteByte('>')
	return b.String()
}
