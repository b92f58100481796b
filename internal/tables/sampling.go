package tables

import (
	"encoding/json"
	"io"
	"runtime"

	"repro/race"
)

// DefaultSamplingBudgets is the rate sweep of the budgeted sampling lane:
// the exhaustive anchor (1.0, byte-identical to no sampler by the
// pass-through pin), then decreasing budgets down to 1%. The interesting
// region for always-on production deployment is 1–10%.
var DefaultSamplingBudgets = []float64{1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01}

// SamplingRow is one (program, budget) cell of the races-found-vs-rate
// curve: the serial in-process detector behind the budgeted sampler,
// scored against the same program's exhaustive run.
type SamplingRow struct {
	Program string  `json:"program"`
	Budget  float64 `json:"budget"`
	// SampledFraction is the fraction of accesses actually forwarded to
	// the detector (Stats.SampledFraction): the achieved rate, which sits
	// at or below the budget plus cold-burst slack.
	SampledFraction float64 `json:"sampled_fraction"`
	Forwarded       uint64  `json:"forwarded"`
	Skipped         uint64  `json:"skipped"`
	// Races is how many of the exhaustive run's races the budgeted run
	// still found (sampling can only shrink the set — the sync skeleton
	// stays exact, so any race it reports is in the exhaustive set too).
	Races           int     `json:"races"`
	ExhaustiveRaces int     `json:"exhaustive_races"`
	Recall          float64 `json:"recall"`
}

// SamplingCurvePoint aggregates one budget across every workload: the
// committed races-found-vs-rate curve is this slice.
type SamplingCurvePoint struct {
	Budget              float64 `json:"budget"`
	MeanSampledFraction float64 `json:"mean_sampled_fraction"`
	TotalRaces          int     `json:"total_races"`
	TotalExhaustive     int     `json:"total_exhaustive"`
	// Recall is total races found over total exhaustive races across the
	// suite — the headline budget-vs-recall trade-off number.
	Recall float64 `json:"recall"`
}

// SamplingBench sweeps the budget over every workload on the serial
// in-process path (Workers 0, so the sampler's rate stays statically at
// the budget and rows are deterministic) and scores recall against the
// exhaustive dynamic-granularity run.
func (r *Runner) SamplingBench(budgets []float64) ([]SamplingRow, []SamplingCurvePoint) {
	if len(budgets) == 0 {
		budgets = DefaultSamplingBudgets
	}
	var rows []SamplingRow
	agg := make([]SamplingCurvePoint, len(budgets))
	for i, b := range budgets {
		agg[i].Budget = b
	}
	for _, spec := range r.specs {
		full := r.Report(spec, race.Options{Granularity: race.Dynamic})
		fullRaces := sortedRaceStrings(full.Races)
		fullSet := make(map[string]bool, len(fullRaces))
		for _, s := range fullRaces {
			fullSet[s] = true
		}
		for i, b := range budgets {
			rep := r.Report(spec, race.Options{Granularity: race.Dynamic, Budget: b})
			found := 0
			for _, s := range sortedRaceStrings(rep.Races) {
				if fullSet[s] {
					found++
				}
			}
			row := SamplingRow{
				Program:         spec.Name,
				Budget:          b,
				SampledFraction: rep.Detector.SampledFraction(),
				Forwarded:       rep.Detector.SampledForwarded,
				Skipped:         rep.Detector.SampledSkipped,
				Races:           found,
				ExhaustiveRaces: len(full.Races),
				Recall:          1,
			}
			if len(full.Races) > 0 {
				row.Recall = float64(found) / float64(len(full.Races))
			}
			rows = append(rows, row)
			agg[i].MeanSampledFraction += row.SampledFraction
			agg[i].TotalRaces += found
			agg[i].TotalExhaustive += len(full.Races)
		}
	}
	if n := len(r.specs); n > 0 {
		for i := range agg {
			agg[i].MeanSampledFraction /= float64(n)
			agg[i].Recall = 1
			if agg[i].TotalExhaustive > 0 {
				agg[i].Recall = float64(agg[i].TotalRaces) / float64(agg[i].TotalExhaustive)
			}
		}
	}
	return rows, agg
}

// SamplingBenchJSON is the machine-readable BENCH_sampling.json document:
// the per-cell sweep plus the aggregated races-found-vs-rate curve.
type SamplingBenchJSON struct {
	Config struct {
		Scale      int   `json:"scale"`
		Seed       int64 `json:"seed"`
		GOMAXPROCS int   `json:"gomaxprocs"`
	} `json:"config"`
	Curve []SamplingCurvePoint `json:"curve"`
	Rows  []SamplingRow        `json:"rows"`
}

// WriteSamplingJSON runs the budgeted sampling lane and writes
// BENCH_sampling.json.
func (r *Runner) WriteSamplingJSON(w io.Writer, budgets []float64) error {
	var out SamplingBenchJSON
	out.Config.Scale = r.cfg.Scale
	out.Config.Seed = r.cfg.Seed
	out.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	out.Rows, out.Curve = r.SamplingBench(budgets)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
