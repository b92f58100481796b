package bench

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares, and
// checks it declares the benchmark's workloads.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []Bound `json:"end_to_end"`
		PerLayer []Bound `json:"per_layer"`
		Workload []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workload) != len(All()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(doc.Workload), len(All()))
	}
	for i, w := range doc.Workload {
		if want := All()[i]; w.Name != want.Name || w.Why != want.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, want.Name, want.Why)
		}
	}
	index := func(bs []Bound) map[string]string {
		m := make(map[string]string, len(bs))
		for _, b := range bs {
			m[b.Name] = b.Unit
		}
		return m
	}
	return index(doc.EndToEnd), index(doc.PerLayer)
}

// checkMetrics asserts r reports exactly the declared metrics, each finite
// and with its declared unit.
func checkMetrics(t *testing.T, r Result, want map[string]string) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", r.Header.Workload, len(r.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := r.Metric(name)
		switch {
		case !ok:
			t.Errorf("%s: metric %s not reported", r.Header.Workload, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", r.Header.Workload, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", r.Header.Workload, name, m.Value)
		}
	}
}

// TestSmoke runs every workload at scale 1 for two timed passes, untraced
// and traced, and checks the declared metrics, the verdicts and the span
// ledger's coverage of the traced wall time.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				r, err := Run(Config{Workload: w, Seed: 42, Scale: 1, Passes: 2, Trace: trace, SpansDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || !r.Correct() {
					t.Errorf("trace=%t: %d of %d runs failed: %v", trace, r.Failed, r.Attempted, r.Failures)
				}
				if !trace {
					checkMetrics(t, r, endToEnd)
					continue
				}
				checkMetrics(t, r, perLayer)
				if c, _ := r.Metric("trace.coverage"); c.Value < 0.9 || c.Value > 1.1 {
					t.Errorf("trace.coverage %.3f outside [0.9, 1.1]", c.Value)
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestCompareVerdicts checks the bound rules on synthetic results.
func TestCompareVerdicts(t *testing.T) {
	res := func(v, q1, q3 float64) []Result {
		return []Result{{
			Header:  Header{Workload: "sharing-serial"},
			Metrics: []Metric{{Name: "slowdown", Unit: "x", Value: v, Q1: q1, Q3: q3, N: 10}},
		}}
	}
	bounds := []Bound{{Name: "slowdown", Better: "lower", Bound: 0.1}}
	for _, c := range []struct {
		a, b []Result
		want string
	}{
		{res(10, 9.9, 10.1), res(10.5, 10.4, 10.6), "same"},
		{res(10, 9.9, 10.1), res(11.5, 11.4, 11.6), "worse"},
		{res(10, 9.9, 10.1), res(8.5, 8.4, 8.6), "better"},
		{res(10, 8, 12), res(10, 9.9, 10.1), "unresolved"},
	} {
		cs := Compare(bounds, c.a, c.b)
		if len(cs) != 1 || cs[0].Verdict != c.want {
			t.Errorf("compare %v vs %v: %+v, want %s", c.a[0].Metrics, c.b[0].Metrics, cs, c.want)
		}
	}
}
