// Package telemetry is the zero-dependency instrumentation core of the
// reproduction: lock-free counters and gauges, power-of-two-bucket
// histograms, a named-metric registry with Prometheus text / JSON / expvar
// export, and a phase tracer that emits Chrome trace_event JSON.
//
// The package is built for hot paths. Every instrument is updated with a
// single atomic operation, and every instrument method is safe on a nil
// receiver (a no-op), so instrumented code points carry exactly one
// predictable branch when telemetry is disabled:
//
//	reg := telemetry.New()            // or nil to disable
//	hits := reg.Counter("hits_total", "Cache hits.")
//	...
//	hits.Inc()                        // atomic add, or no-op when reg == nil
//
// A nil *Registry returns nil instruments from every constructor, and nil
// instruments ignore updates — callers never need a second code path for
// the disabled case. The overhead budget is pinned by
// BenchmarkTelemetryOverhead at the repository root: a nil registry must
// keep the detection pipeline within a few percent of its uninstrumented
// throughput.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; all methods are safe on a nil receiver and safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Adding zero touches nothing, so a caller publishing a batch
// of deltas pays no atomic operation for the ones that did not move.
func (c *Counter) Add(n uint64) {
	if c != nil && n != 0 {
		c.v.Add(n)
	}
}

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 metric. The zero value is ready to use;
// all methods are safe on a nil receiver and safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the value by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of histogram buckets: one per possible
// bit-length of a uint64 value (0..64). Bucket i counts observations v
// with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i, so bucket upper bounds
// are 2^i - 1; bucket 0 holds exactly the zero observations. The layout
// covers the full uint64 range — Observe(0) and Observe(math.MaxUint64)
// both land in real buckets.
const histBuckets = 65

// Histogram is a fixed-shape power-of-two-bucket histogram for latency
// and size distributions. Observations cost one atomic add per bucket and
// one for the running sum; there is no locking and no allocation. The
// zero value is ready to use; all methods are safe on a nil receiver.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64 // wraps modulo 2^64 on extreme inputs, by design
	// exemplars holds the most recent trace ID observed per bucket (see
	// ObserveTraced): the link from a latency bucket — in particular a
	// tail bucket — to one concrete distributed span tree that landed
	// there. Zero means the bucket has no exemplar.
	exemplars [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// ObserveTraced records one value and, when trace is non-zero, stamps it
// as the bucket's exemplar — so a p99 spike in the snapshot names the
// trace ID of a batch that actually took that long. Costs one extra
// atomic store over Observe only for traced observations.
func (h *Histogram) ObserveTraced(v, trace uint64) {
	if h == nil {
		return
	}
	i := bits.Len64(v)
	h.buckets[i].Add(1)
	h.sum.Add(v)
	if trace != 0 {
		h.exemplars[i].Store(trace)
	}
}

// ObserveSince records the elapsed nanoseconds since start — the idiomatic
// latency observation:
//
//	t := time.Now()
//	... work ...
//	hist.ObserveSince(t)
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return // skip the time.Now() call entirely when disabled
	}
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// HistogramSnapshot is a consistent-enough point-in-time view of a
// histogram (buckets are loaded individually; a scrape racing observations
// may be off by in-flight updates, never torn).
type HistogramSnapshot struct {
	Count   uint64              // total observations
	Sum     uint64              // sum of observed values (may wrap)
	Buckets [histBuckets]uint64 // per-bucket counts; see BucketBound
	// Exemplars carries each bucket's most recent trace ID (0 = none).
	Exemplars [histBuckets]uint64
}

// BucketBound returns the inclusive upper bound of bucket i
// (2^i - 1; bucket 0 is exactly 0, the last bucket is math.MaxUint64).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Snapshot returns the current bucket counts (zero value for nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// TailExemplar returns the trace ID stamped on the highest non-empty
// bucket that has one — the exemplar for the distribution's tail — or 0.
func (s HistogramSnapshot) TailExemplar() uint64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 && s.Exemplars[i] != 0 {
			return s.Exemplars[i]
		}
	}
	return 0
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// observed values: the bucket bound below which at least q of the
// observations fall. Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Upper-rank selection: rank floor(q·count)+1, clamped to count. For
	// an even count's median this picks the upper of the two middle
	// observations, matching the histogram's "value ≤ bound" semantics.
	rank := uint64(math.Floor(q*float64(s.Count))) + 1
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Mean returns the mean observed value (0 when empty). The mean is exact
// unless the internal sum wrapped.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
