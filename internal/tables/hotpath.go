package tables

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/workloads"
)

// DefaultHotpathBenchmarks is the hot-path lane's workload mix: three
// locality-heavy streams where same-epoch repeats dominate (the shape the
// elider is built for), plus two honest negatives — canneal's random
// access defeats the repeat cache and fanin's sync density flushes it
// before any repeat survives.
var DefaultHotpathBenchmarks = []string{"streamcluster", "pbzip2", "x264", "canneal", "fanin"}

// HotpathRow is one (program, elide) cell of the hot-path lane: the
// captured event stream of the program, optionally filtered by the
// front-line elider, applied record-at-a-time to a fresh serial detector.
type HotpathRow struct {
	Program string `json:"program"`
	// Elide is whether the stream passed the front-line same-epoch filter
	// before being applied (and before wire encoding).
	Elide bool `json:"elide"`
	// Events is the original stream length; Elided is how many of its
	// accesses the filter dropped; AppliedRecords is what reached the
	// detector (Events - Elided).
	Events         uint64 `json:"events"`
	Elided         uint64 `json:"elided"`
	AppliedRecords uint64 `json:"applied_records"`
	// NsPerEvent is detector apply wall time over the ORIGINAL event
	// count, so elide-on rows get credit for the work they skip.
	NsPerEvent float64 `json:"ns_per_event"`
	// WireBytes is the columnar payload size of the stream the detector
	// saw, batched at the transport batch size — what a remote session
	// would put on the wire.
	WireBytes     uint64  `json:"wire_bytes"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	// Races pins losslessness: identical across both cells of a program
	// or the bench itself fails.
	Races int `json:"races"`
}

// captureStream runs the program once and returns its full event stream.
func captureStream(spec workloads.Spec, scale int, seed int64) []event.Rec {
	var recs []event.Rec
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		recs = append(recs, b.Recs...)
		event.PutBatch(b)
	}}
	sim.Run(spec.Build(scale), enc, sim.Options{Seed: seed})
	enc.Close()
	return recs
}

// elideStream replays recs through the front-line filter and returns the
// surviving stream plus the elided count.
func elideStream(recs []event.Rec) ([]event.Rec, uint64) {
	var out []event.Rec
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		out = append(out, b.Recs...)
		event.PutBatch(b)
	}}
	el := event.NewElider(enc, event.EliderOptions{})
	for i := range recs {
		event.ApplyRec(el, &recs[i])
	}
	enc.Close()
	return out, el.Elided()
}

// wireBytes measures the columnar payload size of the stream at the
// transport batch size (frame headers excluded — they are codec-invariant).
func wireBytes(recs []event.Rec) uint64 {
	var total uint64
	var buf []byte
	for lo := 0; lo < len(recs); lo += event.DefaultBatchSize {
		hi := lo + event.DefaultBatchSize
		if hi > len(recs) {
			hi = len(recs)
		}
		buf = wire.AppendColumnar(buf[:0], recs[lo:hi])
		total += uint64(len(buf))
	}
	return total
}

// applyStream feeds the stream to a fresh dynamic-granularity detector
// and returns the apply wall time and the race count.
func applyStream(recs []event.Rec) (time.Duration, int) {
	d := detector.New(detector.Config{Granularity: detector.Dynamic})
	start := time.Now()
	for i := range recs {
		event.ApplyRec(d, &recs[i])
	}
	return time.Since(start), len(d.Races())
}

// HotpathBench measures the elided hot path end to end: for each workload
// it captures the event stream once, derives the elided variant, and
// times the detector over both streams. Verdicts are asserted identical
// across both cells — a divergence is returned as an error, never
// silently recorded.
func (r *Runner) HotpathBench(names []string) ([]HotpathRow, error) {
	if len(names) == 0 {
		names = DefaultHotpathBenchmarks
	}
	var rows []HotpathRow
	for _, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		full := captureStream(spec, r.cfg.Scale, r.cfg.Seed)
		elided, nElided := elideStream(full)
		streams := []struct {
			elide  bool
			recs   []event.Rec
			elided uint64
		}{
			{false, full, 0},
			{true, elided, nElided},
		}
		baseRaces := -1
		for _, st := range streams {
			var best time.Duration
			var races int
			for run := 0; run < r.cfg.TimingRuns; run++ {
				runtime.GC() // isolate timed runs from each other's garbage
				d, got := applyStream(st.recs)
				races = got
				if run == 0 || d < best {
					best = d
				}
			}
			if baseRaces < 0 {
				baseRaces = races
			} else if races != baseRaces {
				return nil, fmt.Errorf(
					"hotpath: %s elide=%v found %d races, baseline %d — hot path is not lossless",
					name, st.elide, races, baseRaces)
			}
			bytes := wireBytes(st.recs)
			row := HotpathRow{
				Program:        name,
				Elide:          st.elide,
				Events:         uint64(len(full)),
				Elided:         st.elided,
				AppliedRecords: uint64(len(st.recs)),
				WireBytes:      bytes,
				Races:          races,
			}
			if len(full) > 0 {
				row.NsPerEvent = float64(best.Nanoseconds()) / float64(len(full))
				row.BytesPerEvent = float64(bytes) / float64(len(full))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// HotpathBenchJSON is the machine-readable BENCH_hotpath.json document.
type HotpathBenchJSON struct {
	Config struct {
		Scale      int   `json:"scale"`
		Seed       int64 `json:"seed"`
		GOMAXPROCS int   `json:"gomaxprocs"`
		TimingRuns int   `json:"timing_runs"`
	} `json:"config"`
	Rows []HotpathRow `json:"rows"`
}

// WriteHotpathJSON runs the hot-path lane and writes BENCH_hotpath.json.
func (r *Runner) WriteHotpathJSON(w io.Writer, names []string) error {
	var out HotpathBenchJSON
	out.Config.Scale = r.cfg.Scale
	out.Config.Seed = r.cfg.Seed
	out.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	out.Config.TimingRuns = r.cfg.TimingRuns
	rows, err := r.HotpathBench(names)
	if err != nil {
		return err
	}
	out.Rows = rows
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
