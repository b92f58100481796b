package race

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/workloads"
)

// TestSamplingEquivalenceFullBudget is the 100%-budget pin: with Budget 1
// the sampling lane must be byte-identical to no sampler at all — same
// race set and same detector access count — across every workload, every
// granularity and all three topologies (in-process serial, remote
// loopback, two-member cluster). The sampler short-circuits into pure
// pass-through at 1000‰, so any divergence here means the lane perturbs
// the stream it claims to merely observe.
func TestSamplingEquivalenceFullBudget(t *testing.T) {
	remote := startDetectd(t, server.Options{})
	cluster := []string{startDetectd(t, server.Options{}), startDetectd(t, server.Options{})}
	for _, spec := range workloads.All() {
		for _, g := range []Granularity{Byte, Word, Dynamic} {
			base := Run(spec.Program(), Options{Granularity: g, Seed: 42})
			want := sortRaces(base.Races)
			topologies := []struct {
				name string
				opts Options
			}{
				{"serial", Options{Granularity: g, Seed: 42, Budget: 1}},
				{"remote", Options{Granularity: g, Seed: 42, Budget: 1, Workers: 2, Remote: remote}},
				{"cluster", Options{Granularity: g, Seed: 42, Budget: 1, Workers: 2, Cluster: cluster}},
			}
			for _, topo := range topologies {
				rep, err := RunE(spec.Program(), topo.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", spec.Name, g, topo.name, err)
				}
				if got := sortRaces(rep.Races); !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s/%s: race set differs at 100%% budget\nwant (%d): %v\ngot (%d): %v",
						spec.Name, g, topo.name, len(want), want, len(got), got)
				}
				if base.Detector.Accesses != rep.Detector.Accesses {
					t.Errorf("%s/%s/%s: Detector.Accesses %d vs %d at 100%% budget",
						spec.Name, g, topo.name, base.Detector.Accesses, rep.Detector.Accesses)
				}
				if rep.Detector.SampledSkipped != 0 {
					t.Errorf("%s/%s/%s: pass-through skipped %d accesses",
						spec.Name, g, topo.name, rep.Detector.SampledSkipped)
				}
			}
		}
	}
}

// TestSamplingBudgetStats reconciles the three coverage surfaces of a
// budgeted run: the report's Stats, the sampling_* telemetry counters and
// the detector_sampled_fraction gauge must tell the same story, and on an
// iterating workload (canneal amortizes its cold start) the achieved
// fraction lands within the budget plus cold-burst slack. Below the 100%
// budget the sampler decides every Read and Write, so its forwarded and
// skipped counts add up to the program's access count exactly.
func TestSamplingBudgetStats(t *testing.T) {
	spec, err := workloads.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	rep := Run(spec.Program(), Options{
		Granularity: Dynamic, Seed: 42, Budget: 0.05, Telemetry: reg,
	})
	st := rep.Detector
	if st.SampledForwarded == 0 || st.SampledSkipped == 0 {
		t.Fatalf("budgeted run did not sample: forwarded=%d skipped=%d",
			st.SampledForwarded, st.SampledSkipped)
	}
	if got := st.SampledForwarded + st.SampledSkipped; got != rep.Run.Accesses {
		t.Errorf("access conservation broken: forwarded %d + skipped %d = %d, want Run.Accesses %d",
			st.SampledForwarded, st.SampledSkipped, got, rep.Run.Accesses)
	}
	if got := reg.CounterValue("sampling_forwarded_total"); got != st.SampledForwarded {
		t.Errorf("sampling_forwarded_total %d, Stats.SampledForwarded %d", got, st.SampledForwarded)
	}
	if got := reg.CounterValue("sampling_skipped_total"); got != st.SampledSkipped {
		t.Errorf("sampling_skipped_total %d, Stats.SampledSkipped %d", got, st.SampledSkipped)
	}
	if gauge := reg.GaugeValue("detector_sampled_fraction"); math.Abs(gauge-st.SampledFraction()) > 1e-9 {
		t.Errorf("detector_sampled_fraction gauge %.6f, Stats fraction %.6f",
			gauge, st.SampledFraction())
	}
	if f := st.SampledFraction(); f > 0.055 {
		t.Errorf("achieved fraction %.4f exceeds the 5%% budget + cold-burst slack", f)
	} else if f < 0.005 {
		t.Errorf("achieved fraction %.4f collapsed far below the 5%% budget", f)
	}
}

// TestSampledFractionSharedRegistry runs two budgeted programs on one
// registry: the sampling_* counters sum both runs, and the
// detector_sampled_fraction gauge must be their ratio, not the first
// run's rate.
func TestSampledFractionSharedRegistry(t *testing.T) {
	reg := telemetry.New()
	for _, name := range []string{"canneal", "facesim"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		Run(spec.Program(), Options{Granularity: Dynamic, Seed: 42, Budget: 0.05, Telemetry: reg})
	}
	fwd := float64(reg.CounterValue("sampling_forwarded_total"))
	skip := float64(reg.CounterValue("sampling_skipped_total"))
	if fwd == 0 || skip == 0 {
		t.Fatalf("budgeted runs did not sample: forwarded=%v skipped=%v", fwd, skip)
	}
	if gauge, want := reg.GaugeValue("detector_sampled_fraction"), fwd/(fwd+skip); math.Abs(gauge-want) > 1e-9 {
		t.Errorf("detector_sampled_fraction gauge %.6f, counters give %.6f", gauge, want)
	}
}

// TestSamplingNeverInventsRacesEndToEnd drives the budgeted lane through
// the remote topology (sampler → wire client → server pipeline) and
// checks every reported race is in the exhaustive set: sampling may only
// shrink the report, never add to it, because the synchronization
// skeleton is forwarded verbatim.
func TestSamplingNeverInventsRacesEndToEnd(t *testing.T) {
	addr := startDetectd(t, server.Options{})
	for _, name := range []string{"x264", "pipedag"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := Run(spec.Program(), Options{Granularity: Dynamic, Seed: 42})
		full := map[Race]bool{}
		for _, r := range base.Races {
			full[r] = true
		}
		rep, err := RunE(spec.Program(), Options{
			Granularity: Dynamic, Seed: 42, Budget: 0.05, Workers: 2, Remote: addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Races {
			if !full[r] {
				t.Errorf("%s: budgeted remote run invented a race: %+v", name, r)
			}
		}
		if rep.Detector.SampledForwarded == 0 {
			t.Errorf("%s: remote budgeted run forwarded nothing", name)
		}
	}
}
