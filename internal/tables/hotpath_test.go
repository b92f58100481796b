package tables

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/workloads"
)

// TestHotpathBenchGates runs the hot-path lane on its locality anchor and
// one honest negative and pins the properties BENCH_hotpath.json claims:
//
//   - losslessness: HotpathBench itself fails if any cell's race count
//     diverges, so a clean return is the verdict-identity gate;
//   - the deterministic wins: on streamcluster the elider must drop a
//     meaningful fraction of the stream and shrink the wire payload
//     accordingly (both are exact, replay-stable numbers);
//   - elision only ever shrinks the wire: elide-on bytes <= elide-off
//     bytes on every workload, including the negatives;
//   - a timing sanity bound: the elided stream must not apply slower than
//     the full stream on the locality anchor, judged on the median of
//     paired passes (pairedHotpathRatio).
func TestHotpathBenchGates(t *testing.T) {
	r := NewRunner(Config{Seed: 42, TimingRuns: 3})
	rows, err := r.HotpathBench([]string{"streamcluster", "canneal"})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(prog string, elide bool) HotpathRow {
		for _, row := range rows {
			if row.Program == prog && row.Elide == elide {
				return row
			}
		}
		t.Fatalf("missing cell %s/elide=%v", prog, elide)
		return HotpathRow{}
	}
	for _, prog := range []string{"streamcluster", "canneal"} {
		off := cell(prog, false)
		on := cell(prog, true)
		if on.WireBytes > off.WireBytes {
			t.Errorf("%s: elision grew the wire payload: %d > %d bytes", prog, on.WireBytes, off.WireBytes)
		}
		if on.AppliedRecords+on.Elided != on.Events {
			t.Errorf("%s: stream accounting broken: applied %d + elided %d != %d events",
				prog, on.AppliedRecords, on.Elided, on.Events)
		}
	}
	// The locality anchor's deterministic wins (exact at Seed 42, Scale 1;
	// measured 29% elided, 20% fewer wire bytes).
	off := cell("streamcluster", false)
	on := cell("streamcluster", true)
	if frac := float64(on.Elided) / float64(on.Events); frac < 0.20 {
		t.Errorf("streamcluster: elided fraction %.3f, want >= 0.20", frac)
	}
	if ratio := float64(on.WireBytes) / float64(off.WireBytes); ratio > 0.90 {
		t.Errorf("streamcluster: elided wire bytes at %.3f of baseline, want <= 0.90", ratio)
	}
	if raceDetectorOn {
		return // timing under -race measures the instrumentation, not the code
	}
	ratio := pairedHotpathRatio(t, "streamcluster", hotpathPairs)
	t.Logf("streamcluster: optimized/baseline median time ratio %.3f over %d paired passes", ratio, hotpathPairs)
	if ratio > 1 {
		t.Errorf("streamcluster: optimized hot path slower than baseline: median time ratio %.3f over %d paired passes",
			ratio, hotpathPairs)
	}
}

// hotpathPairs is the number of paired passes behind the timing gate. The
// two passes differ by under ten percent (a median ratio of 0.92 on a
// shared 2-core host, standalone) while one pass on such a host varies by
// tens of percent, and by up to 2× between regenerations of
// BENCH_hotpath.json. When the gate compared a columnar elided pass with a
// record full pass, 20 repeats of the median ratio spanned 0.943–0.980 at
// 181 pairs with five test packages running alongside (0.918–0.989 at 61
// pairs, standalone); a run takes about 2–5 s.
const hotpathPairs = 181

// pairedHotpathRatio times the elided stream against the full stream
// through the same apply in adjacent passes, alternating which goes first
// and with the collector off inside a pass, so both halves of a pair see
// the same host load. It returns the median of the per-pair time ratios
// (optimized / baseline).
func pairedHotpathRatio(t *testing.T, prog string, pairs int) float64 {
	t.Helper()
	spec, err := workloads.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	full := captureStream(spec, 1, 42)
	elided, _ := elideStream(full)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ratios := make([]float64, pairs)
	for i := range ratios {
		var base, opt time.Duration
		runtime.GC()
		if i%2 == 0 {
			base, _ = applyStream(full)
			runtime.GC()
			opt, _ = applyStream(elided)
		} else {
			opt, _ = applyStream(elided)
			runtime.GC()
			base, _ = applyStream(full)
		}
		ratios[i] = float64(opt) / float64(base)
	}
	sort.Float64s(ratios)
	return ratios[pairs/2]
}
