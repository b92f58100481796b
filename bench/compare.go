package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Bound is one end-to-end metric of BENCHMARK.json: how far its median
// may move in the worse direction, as a share of the first side's median,
// before a change counts as a regression.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end bounds from a BENCHMARK.json file.
func LoadBounds(path string) ([]Bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// ReadResults reads a file of results, one JSON object per run (the
// format racebench -out appends).
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	dec := json.NewDecoder(f)
	for {
		var r Result
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("bench: parse %s: %w", path, err)
		}
		out = append(out, r)
	}
}

// Side summarizes one side of a comparison for one (workload, metric).
// With several runs the quartiles are across runs; with one run they are
// the run's own per-pass (or per-set-up) quartiles over N samples.
type Side struct {
	Median, Q1, Q3 float64
	N              int
	runs           []float64
}

// spread is how uncertain the side's median is, as a share of it: the
// inter-quartile distance across runs, or for a single run the width of
// the median's notch over its per-pass samples (±1.58·IQR/√n, McGill et
// al.), since per-pass dispersion is not run-to-run spread.
func (s Side) spread() float64 {
	iqr := s.Q3 - s.Q1
	if len(s.runs) < 2 && s.N > 1 {
		iqr = 2 * 1.58 * iqr / math.Sqrt(float64(s.N))
	}
	return ratio(iqr, s.Median)
}

// Comparison is the verdict for one (workload, end-to-end metric) pair:
// "better", "same", "worse", or "unresolved" when either side's spread
// exceeds the metric's bound.
type Comparison struct {
	Workload, Metric string
	A, B             Side
	// Worse is B's change relative to A's median, signed so that positive
	// means worse in the metric's direction.
	Worse   float64
	Bound   float64
	Verdict string
}

// Compare applies the bounds to every (workload, metric) present in the
// end-to-end (untraced) results of both sides.
func Compare(bounds []Bound, a, b []Result) []Comparison {
	var out []Comparison
	for _, w := range All() {
		for _, bd := range bounds {
			sa, okA := summarize(a, w.Name, bd.Name)
			sb, okB := summarize(b, w.Name, bd.Name)
			if !okA || !okB {
				continue
			}
			c := Comparison{Workload: w.Name, Metric: bd.Name, A: sa, B: sb, Bound: bd.Bound}
			sign := 1.0
			if bd.Better == "higher" {
				sign = -1
			}
			c.Worse = sign * ratio(sb.Median-sa.Median, sa.Median)
			switch {
			case sa.spread() > bd.Bound || sb.spread() > bd.Bound:
				c.Verdict = "unresolved"
				if allBetter(sa.runs, sb.runs, sign) {
					c.Verdict = "better"
				}
			case c.Worse > bd.Bound:
				c.Verdict = "worse"
			case c.Worse < -bd.Bound:
				c.Verdict = "better"
			default:
				c.Verdict = "same"
			}
			out = append(out, c)
		}
	}
	return out
}

// allBetter reports whether every run of b reads better than every run of
// a (sign +1: lower is better). It needs at least two runs a side.
func allBetter(a, b []float64, sign float64) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// summarize collects one metric of one workload's untraced results.
func summarize(rs []Result, workload, metric string) (Side, bool) {
	var vals []float64
	var only Metric
	for _, r := range rs {
		if r.Trace || r.Header.Workload != workload {
			continue
		}
		if m, ok := r.Metric(metric); ok {
			vals = append(vals, m.Value)
			only = m
		}
	}
	switch len(vals) {
	case 0:
		return Side{}, false
	case 1:
		return Side{Median: only.Value, Q1: only.Q1, Q3: only.Q3, N: only.N, runs: vals}, true
	}
	q1, med, q3 := quartiles(vals)
	return Side{Median: med, Q1: q1, Q3: q3, N: len(vals), runs: vals}, true
}

// WriteComparison renders the verdict table.
func WriteComparison(w io.Writer, cs []Comparison) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tworse by\tbound\tverdict")
	for _, c := range cs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
			c.Workload, c.Metric, c.A, c.B, 100*c.Worse, 100*c.Bound, c.Verdict)
	}
	return tw.Flush()
}

func (s Side) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}
