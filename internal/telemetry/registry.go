// Metric registry: named instruments with label sets, shared between the
// code being instrumented (which registers and updates instruments) and
// the exporters (which walk a snapshot). Registration is idempotent — the
// same (name, labels) returns the same instrument — so components can be
// constructed repeatedly (per shard, per session) against one registry.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a registered metric.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindGaugeFunc
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Labels is one metric's label set (e.g. {"shard": "3"}).
type Labels map[string]string

type labelPair struct{ k, v string }

// metric is one registered instrument.
type metric struct {
	name   string
	help   string
	kind   Kind
	labels []labelPair // sorted by key
	key    string      // name + rendered labels (registry map key)

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// core is the shared state behind one or more Registry views.
type core struct {
	mu      sync.Mutex
	ordered []*metric
	byKey   map[string]*metric
}

// Registry is a view onto a metric store, optionally carrying base labels
// that are attached to every registration made through it (see With). A
// nil *Registry is the disabled registry: every constructor returns nil
// and every export is empty.
type Registry struct {
	core *core
	base []labelPair
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{core: &core{byKey: make(map[string]*metric)}}
}

// With returns a view of the same registry that adds l to the labels of
// every metric registered through it. Base labels compose: r.With(a).With(b)
// carries both. Nil-safe.
func (r *Registry) With(l Labels) *Registry {
	if r == nil {
		return nil
	}
	base := append([]labelPair(nil), r.base...)
	for k, v := range l {
		base = append(base, labelPair{k, v})
	}
	sortPairs(base)
	return &Registry{core: r.core, base: base}
}

func sortPairs(p []labelPair) {
	sort.Slice(p, func(i, j int) bool { return p[i].k < p[j].k })
}

// mergedLabels combines the view's base labels with extra (extra wins on
// key collision), sorted by key.
func (r *Registry) mergedLabels(extra []Labels) []labelPair {
	out := append([]labelPair(nil), r.base...)
	for _, l := range extra {
		for k, v := range l {
			replaced := false
			for i := range out {
				if out[i].k == k {
					out[i].v = v
					replaced = true
					break
				}
			}
			if !replaced {
				out = append(out, labelPair{k, v})
			}
		}
	}
	sortPairs(out)
	return out
}

// renderLabels renders a sorted label set in Prometheus form:
// {k1="v1",k2="v2"} — or "" when empty.
func renderLabels(pairs []labelPair) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the existing metric for (name, labels) or installs m.
func (r *Registry) register(name, help string, kind Kind, extra []Labels, build func(*metric)) *metric {
	pairs := r.mergedLabels(extra)
	key := name + renderLabels(pairs)
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %v (was %v)", key, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: pairs, key: key}
	build(m)
	c.byKey[key] = m
	c.ordered = append(c.ordered, m)
	return m
}

// Counter registers (or retrieves) a counter. Nil-safe: a nil registry
// returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindCounter, labels, func(m *metric) {
		m.counter = &Counter{}
	}).counter
}

// Gauge registers (or retrieves) a gauge. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindGauge, labels, func(m *metric) {
		m.gauge = &Gauge{}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time — zero hot-path cost for values derivable on demand (queue depths,
// uptimes, ratios). fn must be safe to call concurrently. Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Labels) {
	if r == nil {
		return
	}
	r.register(name, help, KindGaugeFunc, labels, func(m *metric) { m.fn = fn })
}

// Histogram registers (or retrieves) a power-of-two-bucket histogram.
// Nil-safe.
func (r *Registry) Histogram(name, help string, labels ...Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindHistogram, labels, func(m *metric) {
		m.hist = &Histogram{}
	}).hist
}

// Metric is the exported view of one registered instrument, as captured
// by Each / Export.
type Metric struct {
	Name   string
	Help   string
	Kind   Kind
	Labels Labels
	// Value carries the current value for counters, gauges and gauge
	// funcs. Histograms use Hist instead.
	Value float64
	// Hist is the histogram snapshot (histograms only).
	Hist *HistogramSnapshot
}

// snapshotLocked captures m's current value. Caller holds core.mu (the
// instruments themselves are atomic; the lock only pins the metric list).
func (m *metric) snapshot() Metric {
	out := Metric{Name: m.name, Help: m.help, Kind: m.kind, Labels: Labels{}}
	for _, p := range m.labels {
		out.Labels[p.k] = p.v
	}
	switch m.kind {
	case KindCounter:
		out.Value = float64(m.counter.Load())
	case KindGauge:
		out.Value = float64(m.gauge.Load())
	case KindGaugeFunc:
		out.Value = m.fn()
	case KindHistogram:
		s := m.hist.Snapshot()
		out.Hist = &s
	}
	return out
}

// Each calls f once per registered metric with a point-in-time snapshot,
// in registration order grouped by name (all series of one name appear
// consecutively, matching the Prometheus exposition requirement).
// Nil-safe.
func (r *Registry) Each(f func(Metric)) {
	for _, m := range r.snapshotAll() {
		f(m)
	}
}

// snapshotAll captures every metric, grouped by name in first-registration
// order of the name, then by series registration order within the name.
func (r *Registry) snapshotAll() []Metric {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.Lock()
	ordered := make([]*metric, len(c.ordered))
	copy(ordered, c.ordered)
	c.mu.Unlock()

	nameRank := make(map[string]int)
	for _, m := range ordered {
		if _, ok := nameRank[m.name]; !ok {
			nameRank[m.name] = len(nameRank)
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return nameRank[ordered[i].name] < nameRank[ordered[j].name]
	})
	out := make([]Metric, 0, len(ordered))
	for _, m := range ordered {
		out = append(out, m.snapshot())
	}
	return out
}

// CounterValue returns the summed value of every counter series named
// name (0 when absent or the registry is nil). The sum-across-labels
// semantics make the helper usable for per-shard and per-session families.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.ordered {
		if m.name == name && m.kind == KindCounter {
			total += m.counter.Load()
		}
	}
	return total
}

// GaugeValue returns the summed value of every gauge (or gauge-func)
// series named name.
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	var total float64
	c := r.core
	c.mu.Lock()
	series := make([]*metric, 0, 4)
	for _, m := range c.ordered {
		if m.name == name && (m.kind == KindGauge || m.kind == KindGaugeFunc) {
			series = append(series, m)
		}
	}
	c.mu.Unlock() // gauge funcs may take other locks; call them outside ours
	for _, m := range series {
		if m.kind == KindGauge {
			total += float64(m.gauge.Load())
		} else {
			total += m.fn()
		}
	}
	return total
}

// HistogramValue returns the snapshot of the histogram series named name
// with exactly the given labels merged over the view's base labels
// (zero-value snapshot when absent).
func (r *Registry) HistogramValue(name string, labels ...Labels) HistogramSnapshot {
	if r == nil {
		return HistogramSnapshot{}
	}
	key := name + renderLabels(r.mergedLabels(labels))
	c := r.core
	c.mu.Lock()
	m, ok := c.byKey[key]
	c.mu.Unlock()
	if !ok || m.kind != KindHistogram {
		return HistogramSnapshot{}
	}
	return m.hist.Snapshot()
}

// Prune removes every metric for which keep returns false — the
// cardinality valve for per-session label sets: when a session ends, its
// series are dropped so a long-lived server's exposition stays bounded.
// Nil-safe.
func (r *Registry) Prune(keep func(name string, labels Labels) bool) {
	if r == nil {
		return
	}
	// The valve is itself observable: every removed series increments
	// telemetry_pruned_series_total. The counter must be registered before
	// taking the core lock (registration locks it too), and bumped after
	// releasing it (the counter itself may have just been pruned and the
	// next call would re-register under the same lock).
	dropped := r.Counter("telemetry_pruned_series_total",
		"Metric series removed by Registry.Prune (the cardinality valve).")
	c := r.core
	c.mu.Lock()
	var removed uint64
	kept := c.ordered[:0]
	for _, m := range c.ordered {
		l := Labels{}
		for _, p := range m.labels {
			l[p.k] = p.v
		}
		if keep(m.name, l) {
			kept = append(kept, m)
		} else {
			delete(c.byKey, m.key)
			removed++
		}
	}
	// Nil the vacated tail: a pruned series (and whatever its gauge func
	// closes over) must not stay reachable through the backing array.
	clear(c.ordered[len(kept):])
	c.ordered = kept
	c.mu.Unlock()
	dropped.Add(removed)
}
