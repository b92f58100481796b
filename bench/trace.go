package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/race"
)

// rootSpan is the per-program span every layer span nests in; its own
// self time is the benchmark's glue, so it is not a layer.
const rootSpan = "program"

// ledger records the traced pass's spans on the producer thread: one trace
// per program, a span around every hand-off into a layer, and each layer's
// self time (its spans' durations minus the spans nested in them).
type ledger struct {
	tr    *telemetry.Tracer
	trace uint64
	stack []openSpan
	self  map[string]time.Duration
}

type openSpan struct {
	name  string
	id    uint64
	start time.Time
	inner time.Duration
}

func newLedger() *ledger {
	return &ledger{tr: telemetry.NewTracer(), self: make(map[string]time.Duration)}
}

// begin opens a span named after the layer it enters.
func (l *ledger) begin(name string) {
	l.stack = append(l.stack, openSpan{name: name, id: telemetry.NewTraceID(), start: time.Now()})
}

// end closes the innermost open span and records it.
func (l *ledger) end() {
	now := time.Now()
	o := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	dur := now.Sub(o.start)
	var parent uint64
	if n := len(l.stack); n > 0 {
		l.stack[n-1].inner += dur
		parent = l.stack[n-1].id
	}
	l.self[o.name] += dur - o.inner
	l.tr.RecordSpan(telemetry.SpanRecord{
		Trace: l.trace, Span: o.id, Parent: parent,
		Name: o.name, Process: "racebench",
		Start: o.start.UnixNano(), Dur: int64(dur),
	})
}

// span runs f inside a span named name.
func (l *ledger) span(name string, f func()) {
	l.begin(name)
	f()
	l.end()
}

// tracedRun is one program's traced run, as the composed stack left it.
type tracedRun struct {
	rs     sim.Stats
	races  []race.Race
	stats  detector.Stats
	frames [][]byte // payloads the transport shipped (streamed topologies)
	smp    *sampling.Detector
	shed   uint64
	err    error
}

// layerCounts accumulates what the traced pass measures besides span self
// times, summed over the program mix.
type layerCounts struct {
	wall   time.Duration // composed stacks, summed over programs
	events uint64        // events the programs produced
	stats  []detector.Stats

	applyBusy, dispatchWait time.Duration
	shardEvents, parks      uint64
	skew                    []float64

	encode                time.Duration
	rttSum, rttCount      uint64
	batches, resends      uint64
	payload, clientEvents uint64
	broadcast, fanout     uint64
	merge                 time.Duration
	shed                  uint64

	decode, serverApply time.Duration
	replayed            uint64

	forwarded, skipped uint64
}

// collect adds one program's client-side registry to the counts. Families
// a topology does not register read as zero.
func (c *layerCounts) collect(reg *telemetry.Registry) {
	reg.Each(func(mt telemetry.Metric) {
		if mt.Name == "pipeline_batch_apply_ns" && mt.Hist != nil {
			c.applyBusy += time.Duration(mt.Hist.Sum) // one series per shard
		}
	})
	c.shardEvents += reg.CounterValue("pipeline_shard_events_total")
	c.dispatchWait += time.Duration(reg.HistogramValue("pipeline_dispatch_wait_ns").Sum)
	c.parks += reg.CounterValue("pipeline_ring_parks_total")
	if skew := reg.GaugeValue("pipeline_shard_imbalance"); skew > 0 {
		c.skew = append(c.skew, skew)
	}

	c.encode += time.Duration(reg.HistogramValue("client_encode_ns").Sum)
	rtt := reg.HistogramValue("client_ack_rtt_ns")
	c.rttSum += rtt.Sum
	c.rttCount += rtt.Count
	c.batches += reg.CounterValue("client_batches_total")
	c.resends += reg.CounterValue("client_resends_total")
	c.payload += reg.CounterValue("wire_payload_bytes_total")
	c.clientEvents += reg.CounterValue("client_events_total")
	c.broadcast += reg.CounterValue("cluster_broadcast_events_total")
	c.fanout += reg.CounterValue("cluster_fanout_events_total")
	c.merge += time.Duration(reg.HistogramValue("cluster_merge_ns").Sum)
}

// tracedPass runs every program once more through a stack composed from
// the layers' own constructors — the stack the workload's instrumented
// runs build inside race.RunE — with a span around each hand-off. After
// each program's timed composition it reads the registry, replays the
// server side and checks the verdict, then derives the per-layer metrics.
func (r *runner) tracedPass(m metricSet) error {
	l := newLedger()
	var c layerCounts
	for i, p := range r.e.progs {
		l.trace = telemetry.NewTraceID()
		reg := telemetry.New()
		start := time.Now()
		l.begin(rootSpan)
		var tr tracedRun
		switch {
		case r.w.Topology.Servers > 0:
			tr = r.traceStreamed(l, p, reg)
		case r.w.Topology.Workers > 0:
			tr = r.tracePipeline(l, p, reg)
		default:
			tr = r.traceSerial(l, p)
		}
		l.end()
		c.wall += time.Since(start)

		c.events += tr.rs.Events
		c.collect(reg)
		c.shed += tr.shed
		if tr.smp != nil {
			fwd, skip := tr.smp.Counts()
			c.forwarded += fwd
			c.skipped += skip
		}
		if tr.err == nil && tr.frames != nil {
			tr.err = r.replay(&c, &tr)
		}
		c.stats = append(c.stats, tr.stats)
		r.check(i, tr.races, tr.rs.TimedOut, tr.err)
	}
	r.layerMetrics(m, l, &c)

	if r.cfg.SpansDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.SpansDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(r.cfg.SpansDir, r.w.Name+".spans.json"), l.tr)
}

// layerMetrics derives the traced pass's per-layer metrics.
func (r *runner) layerMetrics(m metricSet, l *ledger, c *layerCounts) {
	put := func(name string, v float64) { m.put(specByName(PerLayer, name), v) }
	secs := func(name string) float64 { return l.self[name].Seconds() }

	// The detector is busy wherever the topology runs it: on the producer
	// thread (serial), on the pipeline workers, or in the server sessions
	// (timed by the replay).
	busy, applied := l.self["detector.apply"], c.events
	switch {
	case r.w.Topology.Servers > 0:
		busy, applied = c.serverApply, c.replayed
	case r.w.Topology.Workers > 0:
		busy, applied = c.applyBusy, c.shardEvents
	}

	var st detector.Stats
	var sharing float64
	for _, s := range c.stats {
		st.Accesses += s.Accesses
		st.SameEpoch += s.SameEpoch
		st.SharingComparisons += s.SharingComparisons
		st.Plane.LocCreations += s.Plane.LocCreations
		st.Plane.NodesPeak += s.Plane.NodesPeak
		st.Plane.Merges += s.Plane.Merges
		st.Plane.Splits += s.Plane.Splits
		st.Plane.NodeAllocs += s.Plane.NodeAllocs
		st.Plane.NodeRecycles += s.Plane.NodeRecycles
		st.HashPeakBytes += s.HashPeakBytes
		st.VCPeakBytes += s.VCPeakBytes
		st.BitmapPeakBytes += s.BitmapPeakBytes
		st.VCPoolHits += s.VCPoolHits
		st.VCPoolMisses += s.VCPoolMisses
		sharing += s.Plane.AvgSharing()
	}
	put("detector.busy_s", busy.Seconds())
	put("detector.ns_per_event", ratio(float64(busy.Nanoseconds()), float64(applied)))
	put("detector.same_epoch_ratio", ratio(float64(st.SameEpoch), float64(st.Accesses)))
	put("detector.full_checks", float64(st.Accesses-st.SameEpoch))
	put("detector.sharing_comparisons", float64(st.SharingComparisons))
	put("detector.loc_creations", float64(st.Plane.LocCreations))
	put("dyngran.avg_sharing", ratio(sharing, float64(len(c.stats))))
	put("dyngran.peak_clocks", float64(st.Plane.NodesPeak))
	put("dyngran.merges", float64(st.Plane.Merges))
	put("dyngran.splits", float64(st.Plane.Splits))
	put("shadow.hash_peak_kib", float64(st.HashPeakBytes)/1024)
	put("vc.peak_kib", float64(st.VCPeakBytes)/1024)
	put("epochbitmap.peak_kib", float64(st.BitmapPeakBytes)/1024)
	put("vc.pool_hit_ratio", ratio(float64(st.VCPoolHits), float64(st.VCPoolHits+st.VCPoolMisses)))
	put("shadow.recycle_ratio", ratio(float64(st.Plane.NodeRecycles), float64(st.Plane.NodeAllocs)))

	put("pipeline.submit_s", secs("pipeline.submit"))
	put("pipeline.dispatch_wait_s", c.dispatchWait.Seconds())
	put("pipeline.apply_busy_s", c.applyBusy.Seconds())
	put("pipeline.drain_s", secs("pipeline.drain"))
	put("pipeline.shard_skew", median(c.skew))
	put("pipeline.ring_parks", float64(c.parks))

	put("client.send_s", secs("client.send"))
	put("client.close_s", secs("client.close"))
	put("client.encode_s", c.encode.Seconds())
	put("client.ack_rtt_mean_ms", ratio(float64(c.rttSum), float64(c.rttCount))/1e6)
	put("client.batches", float64(c.batches))
	put("client.resends", float64(c.resends))
	put("wire.bytes_per_event", ratio(float64(c.payload), float64(c.clientEvents)))
	put("wire.decode_s", c.decode.Seconds())

	put("server.apply_busy_s", c.serverApply.Seconds())
	put("server.frames_rejected", float64(r.e.framesRejected()))
	put("server.shed_records", float64(c.shed))

	put("cluster.send_s", secs("cluster.send"))
	put("cluster.broadcast_share", ratio(float64(c.broadcast), float64(c.broadcast+c.fanout)))
	put("cluster.merge_s", c.merge.Seconds())

	put("sampling.filter_s", secs("sampling.filter"))
	fraction := 1.0
	if n := c.forwarded + c.skipped; n > 0 {
		fraction = float64(c.forwarded) / float64(n)
	}
	put("sampling.achieved_fraction", fraction)
	put("sampling.skipped", float64(c.skipped))

	var covered time.Duration
	for name, d := range l.self {
		if name != rootSpan {
			covered += d
		}
	}
	put("trace.overhead", c.wall.Seconds()/r.instWall())
	put("trace.coverage", covered.Seconds()/c.wall.Seconds())
}

// writeSpans writes the tracer's span file (the `racectl spans` format).
func writeSpans(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteSpansJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return f.Close()
}

// execute runs p into the first encoder inside the sim.execute span and
// then flushes every encoder in order; the flushes open the hand-off spans
// nested in it.
func (r *runner) execute(l *ledger, p race.Program, encs ...*event.Encoder) (rs sim.Stats) {
	l.span("sim.execute", func() {
		rs = sim.Run(p, encs[0], sim.Options{Seed: r.cfg.Seed, Deadline: time.Now().Add(runTimeout)})
		for _, e := range encs {
			e.Close()
		}
	})
	return rs
}

// traceSerial: sim → encoder → Batch.Apply(detector), all on one thread.
func (r *runner) traceSerial(l *ledger, p race.Program) tracedRun {
	var det *detector.Detector
	l.span("detector.new", func() { det = detector.New(detector.Config{Granularity: detector.Dynamic}) })
	enc := event.Encoder{Flush: func(b *event.Batch) {
		l.span("detector.apply", func() { b.Apply(det) })
		event.PutBatch(b)
	}}
	rs := r.execute(l, p, &enc)
	return tracedRun{rs: rs, races: raceList(det.Races()), stats: det.Stats()}
}

// tracePipeline: sim → encoder → Batch.Apply(pipeline) (routing and
// submit on the producer); the workers apply off-thread and Wait drains
// them.
func (r *runner) tracePipeline(l *ledger, p race.Program, reg *telemetry.Registry) tracedRun {
	var pl *pipeline.Pipeline
	l.span("pipeline.new", func() {
		pl = pipeline.New(pipeline.Options{
			Workers:   r.w.Topology.Workers,
			Detector:  detector.Config{Granularity: detector.Dynamic},
			Telemetry: reg,
		})
	})
	enc := event.Encoder{Flush: func(b *event.Batch) {
		l.span("pipeline.submit", func() { b.Apply(pl) })
		event.PutBatch(b)
	}}
	rs := r.execute(l, p, &enc)
	var res pipeline.Result
	l.span("pipeline.drain", func() { res = pl.Wait() })
	return tracedRun{rs: rs, races: raceList(res.Races), stats: res.Stats}
}

// streamSink is the client side of a Remote or Cluster session.
type streamSink interface {
	event.Sink
	Close() (*wire.Report, error)
}

// traceStreamed: sim → encoder → [Batch.Apply(sampler) → encoder] →
// Batch.Apply(client or cluster sink), then Close for the report. Each
// batch the transport receives is also captured as its columnar payload
// for the server-side replay.
func (r *runner) traceStreamed(l *ledger, p race.Program, reg *telemetry.Registry) tracedRun {
	t := r.w.Topology
	hello := wire.Hello{Granularity: uint8(detector.Dynamic)}
	var ctrl *sampling.Controller
	if t.Budget > 0 && t.Budget < 1 {
		ctrl = sampling.NewController(t.Budget)
	}
	var (
		tr      tracedRun
		sink    streamSink
		sendTag = "client.send"
	)
	l.span("client.dial", func() {
		if len(r.e.addrs) == 1 {
			opts := client.Options{Addr: r.e.addrs[0], Hello: hello, Telemetry: reg}
			if ctrl != nil {
				opts.Backpressure = ctrl
			}
			sink, tr.err = client.Dial(opts)
			return
		}
		sendTag = "cluster.send"
		opts := cluster.Options{Members: r.e.addrs, Hello: hello, Telemetry: reg}
		if ctrl != nil {
			opts.Backpressure = ctrl
		}
		sink, tr.err = cluster.Dial(opts)
	})
	if tr.err != nil {
		return tr
	}

	out := &event.Encoder{Flush: func(b *event.Batch) {
		l.span(sendTag, func() { b.Apply(sink) })
		l.span("bench.capture", func() { tr.frames = append(tr.frames, wire.AppendColumnar(nil, b.Recs)) })
		event.PutBatch(b)
	}}
	encs := []*event.Encoder{out}
	if t.Budget > 0 {
		tr.smp = sampling.New(out, sampling.Options{RatePermille: uint32(t.Budget*1000 + 0.5)})
		if ctrl != nil {
			ctrl.Bind(tr.smp)
		}
		in := &event.Encoder{Flush: func(b *event.Batch) {
			l.span("sampling.filter", func() { b.Apply(tr.smp) })
			event.PutBatch(b)
		}}
		encs = []*event.Encoder{in, out}
	}
	tr.rs = r.execute(l, p, encs...)
	var rep *wire.Report
	l.span("client.close", func() { rep, tr.err = sink.Close() })
	if tr.err != nil {
		return tr
	}
	tr.races = raceList(rep.DetectorRaces())
	tr.stats = rep.DetectorStats()
	tr.shed = rep.Stats.ShedRecords
	return tr
}

// replay decodes the captured payloads and applies them to a fresh
// detector — the work a server session does off the producer's thread —
// timing decode and apply separately. The replayed verdict must match the
// session's on exact workloads.
func (r *runner) replay(c *layerCounts, tr *tracedRun) error {
	det := detector.New(detector.Config{Granularity: detector.Dynamic})
	cols := event.GetCols()
	defer event.PutCols(cols)
	for _, f := range tr.frames {
		cols.Reset()
		start := time.Now()
		if err := wire.DecodeColumnarColsInto(f, cols); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		decoded := time.Now()
		det.ApplyCols(cols)
		c.decode += decoded.Sub(start)
		c.serverApply += time.Since(decoded)
		c.replayed += uint64(cols.Len())
	}
	// The wire report omits the memory layer's pool and freelist counts;
	// the replay detector did the same work on the same stream.
	st := det.Stats()
	tr.stats.VCPoolHits, tr.stats.VCPoolMisses = st.VCPoolHits, st.VCPoolMisses
	tr.stats.Plane.NodeRecycles = st.Plane.NodeRecycles
	if got := raceList(det.Races()); r.w.Exact() && !sameRaces(got, tr.races) {
		return fmt.Errorf("server-side replay found %d races, the session reported %d", len(got), len(tr.races))
	}
	return nil
}

// raceList maps detector races to the public form race.RunE reports, so
// traced verdicts compare against the serial reference directly.
func raceList(rs []detector.Race) []race.Race {
	out := make([]race.Race, 0, len(rs))
	for _, x := range rs {
		out = append(out, race.Race{
			Kind: x.Kind.String(), Addr: x.Addr, Size: x.Size,
			Tid: int32(x.Tid), PC: uint32(x.PC),
			OtherTid: int32(x.PrevTid), OtherPC: uint32(x.PrevPC),
		})
	}
	return out
}
