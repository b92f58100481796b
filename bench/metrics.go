package bench

import (
	"math"
	"sort"
)

// Metric is one measured value with its unit and, where the benchmark has
// several samples of it, the quartiles and sample count behind it.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// spec names a metric and its unit; the tables below are the catalogue
// BENCHMARK.json declares (the smoke test keeps the two in step).
type spec struct{ name, unit string }

// EndToEnd is the end-to-end metric catalogue: what a user of the
// detector sees, measured with tracing off.
var EndToEnd = []spec{
	{"slowdown", "x"},
	{"mem_overhead", "x"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
	{"recall", "ratio"},
}

// PerLayer is the per-layer metric catalogue, named after the modules
// whose work each metric measures.
var PerLayer = []spec{
	{"sim.base_s", "s"},
	{"sim.events", "count"},
	{"sim.sync_share", "ratio"},

	{"detector.busy_s", "s"},
	{"detector.ns_per_event", "ns"},
	{"detector.same_epoch_ratio", "ratio"},
	{"detector.full_checks", "count"},
	{"detector.sharing_comparisons", "count"},
	{"detector.loc_creations", "count"},
	{"dyngran.avg_sharing", "ratio"},
	{"dyngran.peak_clocks", "count"},
	{"dyngran.merges", "count"},
	{"dyngran.splits", "count"},
	{"shadow.hash_peak_kib", "KiB"},
	{"vc.peak_kib", "KiB"},
	{"epochbitmap.peak_kib", "KiB"},
	{"vc.pool_hit_ratio", "ratio"},
	{"shadow.recycle_ratio", "ratio"},

	{"pipeline.submit_s", "s"},
	{"pipeline.dispatch_wait_s", "s"},
	{"pipeline.apply_busy_s", "s"},
	{"pipeline.drain_s", "s"},
	{"pipeline.shard_skew", "ratio"},
	{"pipeline.ring_parks", "count"},

	{"client.send_s", "s"},
	{"client.close_s", "s"},
	{"client.encode_s", "s"},
	{"client.ack_rtt_mean_ms", "ms"},
	{"client.batches", "count"},
	{"client.resends", "count"},
	{"wire.bytes_per_event", "B"},
	{"wire.decode_s", "s"},

	{"server.apply_busy_s", "s"},
	{"server.frames_rejected", "count"},
	{"server.shed_records", "count"},

	{"cluster.send_s", "s"},
	{"cluster.broadcast_share", "ratio"},
	{"cluster.merge_s", "s"},

	{"sampling.filter_s", "s"},
	{"sampling.achieved_fraction", "ratio"},
	{"sampling.skipped", "count"},

	{"race.events_per_s", "1/s"},
	{"go.alloc_mib", "MiB"},
	{"go.gc_cycles", "count"},

	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

// metricSet collects a run's metrics by name, in catalogue order.
type metricSet map[string]Metric

// put records a single-sample value.
func (m metricSet) put(s spec, v float64) {
	m[s.name] = Metric{Name: s.name, Unit: s.unit, Value: v, Q1: v, Q3: v, N: 1}
}

// putSamples records the median of samples with their quartiles.
func (m metricSet) putSamples(s spec, samples []float64) {
	m.putValue(s, median(samples), samples)
}

// putValue records value, derived from the samples, with their quartiles.
func (m metricSet) putValue(s spec, value float64, samples []float64) {
	q1, _, q3 := quartiles(samples)
	m[s.name] = Metric{Name: s.name, Unit: s.unit, Value: value, Q1: q1, Q3: q3, N: len(samples)}
}

// list returns the metrics of catalogue in order (missing ones skipped).
func (m metricSet) list(catalogue []spec) []Metric {
	out := make([]Metric, 0, len(catalogue))
	for _, s := range catalogue {
		if v, ok := m[s.name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// specByName finds a catalogue entry. The names are the benchmark's own
// constants, so an unknown one is a bug.
func specByName(catalogue []spec, name string) spec {
	for _, s := range catalogue {
		if s.name == name {
			return s
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed exactly as Python's statistics.quantiles(xs, n=4) computes its
// default exclusive-method cut points (the median is the plain median). A
// single sample is its own quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), median(s), cut(3)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
