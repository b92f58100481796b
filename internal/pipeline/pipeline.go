// Package pipeline is the sharded parallel detection engine: it decouples
// event generation (the execution engine, which is inherently serial) from
// race analysis (which parallelizes by address) so detection runs at the
// throughput of N cores instead of one.
//
// # Architecture
//
// The Pipeline is an event.Sink. The execution thread encodes every
// instrumentation event into fixed-size records (internal/event's batch
// encoding, sync.Pool-recycled) and routes them:
//
//   - Memory accesses go to exactly one worker, selected by shadow block
//     number (addr >> shadow.BlockShift mod Workers). Accesses whose
//     footprint crosses a 128-byte block boundary are split at the
//     boundary, so a shadow block — and therefore any shared clock, which
//     never spans blocks (dyngran.canMerge) — lives on exactly one shard.
//   - Synchronization events (acquire/release, fork/join, barriers) and
//     heap events are sequence-numbered and broadcast to every worker in
//     stream order.
//
// Decoded columnar batches enter through TakeCols: a one-worker pipeline
// ships the batch itself to its worker whenever routing would not change
// it, and every other batch is replayed record by record into the Sink
// methods above.
//
// Each worker owns a shard-constructed detector.Detector holding the
// shadow planes and epoch bitmaps of its block subset plus a full replica
// of the per-thread/lock/barrier vector clocks (rebuilt from the broadcast
// sync stream). Every worker therefore observes the identical
// happens-before order, and per-location analysis is the same FastTrack
// computation the serial detector performs — sharding changes where a
// location is analyzed, never how.
//
// # Precision
//
// Per-address shadow state is independent between sync points: the FastTrack
// checks for a location consult only that location's read/write history and
// the accessing thread's clock. Dynamic-granularity sharing is confined to
// one 128-address block by construction (the paper's Figure 4 indexing
// arrays bound sharing at one hash entry), so block-sharded workers make
// exactly the sharing decisions the serial detector makes. The only
// semantic difference is that a single access whose footprint straddles a
// block boundary is analyzed as two block-local accesses; the race/equivalence
// test asserts that the reported race set is identical to serial mode for
// every workload and granularity.
//
// # Determinism
//
// Routing is a pure function of the event stream, and each worker consumes
// its FIFO in order, so results are independent of worker scheduling. Race
// reports are merged by the global sequence number of the event that
// completed the race (ties broken by address), making the merged report
// deterministic for any worker count.
package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/vc"
)

// Options configure a pipeline.
type Options struct {
	// Workers is the number of detection workers (≥ 1).
	Workers int
	// Detector is the FastTrack configuration applied to every worker; the
	// pipeline fills in the Shard/Shards fields.
	Detector detector.Config
	// ChannelDepth is the per-worker batch queue depth (0 = default 8).
	// Deeper queues absorb bursts; the queue bounds memory because
	// batches are fixed-size.
	ChannelDepth int
	// Backpressure, when non-nil, receives the worker-queue occupancy at
	// each batch ship — the hook the budgeted sampling lane's feedback
	// controller (sampling.Controller) plugs into.
	Backpressure event.BackpressureObserver
	// Telemetry, when non-nil, receives the pipeline instrument families:
	// per-shard applied-event counters (pipeline_shard_events_total), batch
	// dispatch counts and stall/apply latency histograms, a live
	// queue-depth gauge and a shard-imbalance gauge. Nil disables
	// instrumentation with at most one predictable branch per batch.
	// Registration is idempotent, but the gauge funcs bind to the first
	// pipeline registered on a given registry view — give each concurrent
	// pipeline its own labeled view (Registry.With).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives shard-apply spans for traced batches
	// (see SetTrace) and enables trace exemplars on the dispatch-wait and
	// apply-latency histograms. Nil disables span recording entirely.
	Tracer *telemetry.Tracer
}

// Result is the merged outcome of a pipeline run.
type Result struct {
	// Races are the merged race reports ordered by the sequence number of
	// the completing event (the deterministic analogue of serial detection
	// order).
	Races []detector.Race
	// Stats aggregates the per-worker detector statistics. Accesses and
	// NonShared are counted at the router (once per original access);
	// memory components are sums of per-worker peaks, which bounds — and
	// for component peaks slightly overstates — the true simultaneous
	// total.
	Stats detector.Stats
	// Events is the total number of events routed.
	Events uint64
	// Provenance is index-aligned with Races when the detector ran with
	// Config.Provenance (nil otherwise): Provenance[i] explains Races[i].
	Provenance []detector.Provenance
}

// seqRace tags a reported race with its completing event's sequence number
// (and, when the flight recorder is on, its provenance record).
type seqRace struct {
	seq  uint64
	race detector.Race
	prov *detector.Provenance
}

// item is one queued hand-off: exactly one of b (row-major record batch)
// or c (a columnar batch handed off whole by TakeCols) is non-nil.
type item struct {
	b *event.Batch
	c *event.Cols
}

type worker struct {
	q     chan item
	det   *detector.Detector
	races []seqRace
	// provOn mirrors Config.Provenance: the worker stamps the router's
	// global sequence number into the flight recorder before each record so
	// provenance seq fields agree across shards.
	provOn bool
	shard  int

	// events counts records applied by this shard; applyNS observes
	// per-batch apply latency; parks counts receives that found the queue
	// empty. All are nil (no-op) when telemetry is disabled.
	events  *telemetry.Counter
	applyNS *telemetry.Histogram
	parks   *telemetry.Counter
	// tracer receives one shard.apply span per traced batch (nil = off).
	tracer *telemetry.Tracer
}

// recv dequeues the next batch, counting a park when the queue is empty;
// ok is false once the router closed the queue and it drained.
func (w *worker) recv() (item, bool) {
	select {
	case it, ok := <-w.q:
		return it, ok
	default:
		w.parks.Inc()
		it, ok := <-w.q
		return it, ok
	}
}

// run drains the worker's batch queue, applying each record to the shard
// detector and tagging any race the record completed with its sequence
// number. It owns det exclusively; the channel hand-off is the memory
// fence between router and worker.
func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		it, ok := w.recv()
		if !ok {
			return
		}
		var trace, span uint64
		var n int
		if it.c != nil {
			trace, span, n = it.c.Trace, it.c.Span, it.c.Len()
		} else {
			trace, span, n = it.b.Trace, it.b.Span, len(it.b.Recs)
		}
		var start time.Time
		if w.applyNS != nil || (w.tracer != nil && trace != 0) {
			start = time.Now()
		}
		w.events.Add(uint64(n))
		if it.c != nil {
			w.applyCols(it.c)
			event.PutCols(it.c)
		} else {
			w.applyRecs(it.b)
			event.PutBatch(it.b)
		}
		w.det.Publish() // registry readers see each applied batch
		if !start.IsZero() {
			elapsed := time.Since(start)
			if elapsed < 0 {
				elapsed = 0
			}
			w.applyNS.ObserveTraced(uint64(elapsed), trace)
			if w.tracer != nil && trace != 0 {
				w.tracer.RecordSpan(telemetry.SpanRecord{
					Trace: trace, Span: telemetry.NewTraceID(), Parent: span,
					Name: "shard.apply", Process: "pipeline", Dur: int64(elapsed),
					Args: map[string]any{"shard": w.shard, "recs": n},
				})
			}
		}
	}
}

// applyRecs replays a row-major batch record-at-a-time.
func (w *worker) applyRecs(b *event.Batch) {
	for i := range b.Recs {
		r := &b.Recs[i]
		if w.provOn {
			w.det.SetEventSeq(r.Seq)
		}
		before := len(w.det.Races())
		event.ApplyRec(w.det, r)
		w.tagRaces(before, r.Seq)
	}
}

// applyCols replays a handed-off columnar batch record-at-a-time, like
// applyRecs. TakeCols already filtered its non-shared accesses.
func (w *worker) applyCols(c *event.Cols) {
	for i, op := range c.Ops {
		if w.provOn {
			w.det.SetEventSeq(c.Seqs[i])
		}
		before := len(w.det.Races())
		switch op {
		case event.OpRead:
			w.det.Read(c.Tids[i], c.Addrs[i], c.Sizes[i], c.PCs[i])
		case event.OpWrite:
			w.det.Write(c.Tids[i], c.Addrs[i], c.Sizes[i], c.PCs[i])
		default:
			r := c.Rec(i)
			event.ApplyRec(w.det, &r)
		}
		w.tagRaces(before, c.Seqs[i])
	}
}

// tagRaces records any races reported since before, tagged with the
// completing event's sequence number.
func (w *worker) tagRaces(before int, seq uint64) {
	after := w.det.Races()
	if len(after) <= before {
		return
	}
	provs := w.det.Provs()
	for k, rc := range after[before:] {
		sr := seqRace{seq: seq, race: rc}
		if len(provs) == len(after) {
			p := provs[before+k]
			sr.prov = &p
		}
		w.races = append(w.races, sr)
	}
}

// Pipeline routes an instrumentation event stream to sharded detection
// workers. It implements event.Sink; all Sink methods must be called from
// the (single) execution thread. Call Wait after the run to drain the
// workers and obtain the merged Result.
type Pipeline struct {
	workers []*worker
	pending []*event.Batch // per-worker record batch being filled
	obs     event.BackpressureObserver
	wg      sync.WaitGroup

	seq       uint64
	events    uint64
	accesses  uint64
	nonshared uint64

	// batches counts shipped batches; dispatchNS observes the router's
	// blocking time per ship (non-zero when worker queues are full — the
	// back-pressure signal); parks counts ships that found the queue full.
	// Nil when telemetry is disabled.
	batches    *telemetry.Counter
	dispatchNS *telemetry.Histogram
	parks      *telemetry.Counter

	// trace/span are the current upstream span context (see SetTrace):
	// shipped batches are stamped with it so worker apply spans parent
	// correctly, and it exemplifies the dispatch-wait histogram.
	trace uint64
	span  uint64

	done   bool
	result Result
}

// SetTrace sets the span context stamped onto subsequently shipped batches
// (0, 0 clears it). The remote-detection server calls it before replaying
// each traced client batch into the pipeline; local runs may ignore it.
// Must be called from the execution thread, like every Sink method.
func (p *Pipeline) SetTrace(trace, span uint64) { p.trace, p.span = trace, span }

// New starts a pipeline with opts.Workers detection workers.
func New(opts Options) *Pipeline {
	n := opts.Workers
	if n < 1 {
		n = 1
	}
	depth := opts.ChannelDepth
	if depth <= 0 {
		depth = 8
	}
	p := &Pipeline{
		workers: make([]*worker, n),
		pending: make([]*event.Batch, n),
		obs:     opts.Backpressure,
	}
	reg := opts.Telemetry
	var consParks *telemetry.Counter
	if reg != nil {
		p.batches = reg.Counter("pipeline_batches_total", "Event batches shipped to workers.")
		p.dispatchNS = reg.Histogram("pipeline_dispatch_wait_ns", "Router blocking time per batch ship (back-pressure).")
		const parksHelp = "Worker-queue blocking events by side: a ship found the queue full (producer) or a worker found it empty (consumer)."
		p.parks = reg.Counter("pipeline_ring_parks_total", parksHelp, telemetry.Labels{"side": "producer"})
		consParks = reg.Counter("pipeline_ring_parks_total", parksHelp, telemetry.Labels{"side": "consumer"})
	}
	cfg := opts.Detector
	if cfg.Metrics == nil && reg != nil {
		// One shared instrument set: all detector instruments are atomic,
		// so sharded publications sum exactly like the serial run's.
		cfg.Metrics = detector.NewMetrics(reg)
	}
	for i := range p.workers {
		wcfg := cfg
		if n > 1 {
			wcfg.Shards, wcfg.Shard = n, i
		}
		w := &worker{
			q:      make(chan item, depth),
			det:    detector.New(wcfg),
			provOn: wcfg.Provenance,
			shard:  i,
			tracer: opts.Tracer,
			parks:  consParks,
		}
		if reg != nil {
			shard := telemetry.Labels{"shard": fmt.Sprint(i)}
			w.events = reg.Counter("pipeline_shard_events_total", "Records applied, per detection shard.", shard)
			w.applyNS = reg.Histogram("pipeline_batch_apply_ns", "Per-batch detection apply latency.", shard)
		}
		p.workers[i] = w
		p.wg.Add(1)
		go w.run(&p.wg)
	}
	if reg != nil {
		reg.GaugeFunc("pipeline_queue_depth", "Batches queued to workers, not yet picked up.",
			func() float64 { return float64(p.QueueDepth()) })
		reg.GaugeFunc("pipeline_ring_occupancy", "Mean per-worker queue occupancy as a fraction of capacity (0 = drained, 1 = full).",
			func() float64 {
				var frac float64
				for _, w := range p.workers {
					frac += float64(len(w.q)) / float64(cap(w.q))
				}
				return frac / float64(len(p.workers))
			})
		reg.GaugeFunc("pipeline_shard_imbalance", "Max/mean ratio of per-shard applied events (1 = perfectly balanced).",
			p.shardImbalance)
	}
	return p
}

// shardImbalance returns max/mean of the per-shard applied-event counts
// (0 before any events; 1 means perfect balance). Only meaningful when
// telemetry is enabled — the per-shard counters feed it.
func (p *Pipeline) shardImbalance() float64 {
	var max, sum uint64
	for _, w := range p.workers {
		v := w.events.Load()
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(p.workers))
	return float64(max) / mean
}

// ship sends a full or flushed batch to worker w, observing the router's
// blocking time when instrumented and feeding the back-pressure observer
// the queue occupancy it saw at ship time.
func (p *Pipeline) ship(w int, it item) {
	if it.b != nil {
		it.b.Trace, it.b.Span = p.trace, p.span
	} else {
		it.c.Trace, it.c.Span = p.trace, p.span
	}
	q := p.workers[w].q
	if p.obs != nil {
		p.obs.ObserveQueue(len(q), cap(q))
	}
	if p.dispatchNS == nil {
		p.send(q, it)
		return
	}
	start := time.Now()
	p.send(q, it)
	elapsed := time.Since(start)
	if elapsed < 0 {
		elapsed = 0
	}
	p.dispatchNS.ObserveTraced(uint64(elapsed), p.trace)
	p.batches.Inc()
}

// send enqueues it on q, counting a park when q is full.
func (p *Pipeline) send(q chan item, it item) {
	select {
	case q <- it:
	default:
		p.parks.Inc()
		q <- it
	}
}

// Workers returns the worker count.
func (p *Pipeline) Workers() int { return len(p.workers) }

// QueueDepth returns the number of batches currently queued to workers
// (not yet picked up). It is safe to call concurrently with routing; the
// value is a snapshot, exported by the remote-detection server as its
// per-session queue-depth gauge.
func (p *Pipeline) QueueDepth() int {
	depth := 0
	for _, w := range p.workers {
		depth += len(w.q)
	}
	return depth
}

// push appends a record to worker w's pending batch, shipping the batch
// once it is full.
func (p *Pipeline) push(w int, r event.Rec) {
	b := p.pending[w]
	if b == nil {
		b = event.GetBatch()
		p.pending[w] = b
	}
	b.Append(r)
	if b.Full() {
		p.ship(w, item{b: b})
		p.pending[w] = nil
	}
}

// access routes one memory access, splitting its footprint at shadow-block
// boundaries so each piece lands on the worker owning its block.
func (p *Pipeline) access(op event.Op, tid vc.TID, addr uint64, size uint32, pc event.PC) {
	p.seq++
	p.events++
	if event.NonShared(addr) {
		p.nonshared++
		return // the serial detector's first-line filter, hoisted to the router
	}
	p.accesses++
	n := uint64(len(p.workers))
	lo, hi := addr, addr+uint64(size)
	for lo < hi {
		end := (lo | (shadow.BlockSize - 1)) + 1
		if end > hi {
			end = hi
		}
		w := int(lo >> shadow.BlockShift % n)
		p.push(w, event.Rec{
			Op: op, Tid: tid, Addr: lo, Size: uint32(end - lo), PC: pc, Seq: p.seq,
		})
		lo = end
	}
}

// broadcast sends one sequence-numbered record to every worker, in stream
// order relative to each worker's accesses.
func (p *Pipeline) broadcast(r event.Rec) {
	p.seq++
	p.events++
	r.Seq = p.seq
	for w := range p.workers {
		p.push(w, r)
	}
}

// TakeCols routes a decoded columnar batch and takes ownership of it:
// the caller must not touch c afterwards. On a one-worker pipeline,
// routing a batch whose shared accesses are all non-empty and inside one
// shadow block changes nothing but the router's non-shared filter and the
// Seq column, so both are applied in place and c itself ships to the
// worker, which returns it to the pool after applying it. Every other
// batch — on a multi-worker pipeline, holding an access that routing
// would drop or split, or longer than a routed batch — is replayed record
// by record through the Sink methods and returned to the pool here. The
// remote-detection server hands each decoded frame to its session this
// way. Must be called from the execution thread.
func (p *Pipeline) TakeCols(c *event.Cols) {
	if len(p.workers) > 1 || !shipsWhole(c) {
		c.Apply(p)
		event.PutCols(c)
		return
	}
	k := 0
	for i, op := range c.Ops {
		p.seq++
		p.events++
		if op == event.OpRead || op == event.OpWrite {
			if event.NonShared(c.Addrs[i]) {
				p.nonshared++
				continue
			}
			p.accesses++
		}
		if k != i {
			c.Move(k, i)
		}
		c.Seqs[k] = p.seq
		k++
	}
	c.Truncate(k)
	if k == 0 {
		event.PutCols(c)
		return
	}
	p.shipPending(0) // records routed earlier reach the worker first
	p.ship(0, item{c: c})
}

// shipsWhole reports whether a one-worker route of c would ship every
// shared access unchanged: each is non-empty (routing counts an empty
// access but ships nothing) and lies inside one shadow block (routing
// splits it at the boundary). c must also fit one routed batch, so a
// hand-off queues no more records per batch than routing does, whatever
// record count a frame claims.
func shipsWhole(c *event.Cols) bool {
	if c.Len() > event.DefaultBatchSize {
		return false
	}
	for i, op := range c.Ops {
		if op != event.OpRead && op != event.OpWrite {
			continue
		}
		lo := c.Addrs[i]
		if event.NonShared(lo) {
			continue
		}
		hi := lo + uint64(c.Sizes[i])
		if hi <= lo || (hi-1)>>shadow.BlockShift != lo>>shadow.BlockShift {
			return false
		}
	}
	return true
}

// shipPending ships worker w's pending batch, if it has one.
func (p *Pipeline) shipPending(w int) {
	if b := p.pending[w]; b != nil {
		p.ship(w, item{b: b})
		p.pending[w] = nil
	}
}

// ---- event.Sink ----

// Read routes a shared read to its block's worker.
func (p *Pipeline) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	p.access(event.OpRead, tid, addr, size, pc)
}

// Write routes a shared write to its block's worker.
func (p *Pipeline) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	p.access(event.OpWrite, tid, addr, size, pc)
}

// Acquire broadcasts a lock acquisition to every clock replica.
func (p *Pipeline) Acquire(tid vc.TID, l event.LockID) {
	p.broadcast(event.AcquireRec(tid, l))
}

// Release broadcasts a lock release (a new epoch for tid on every shard).
func (p *Pipeline) Release(tid vc.TID, l event.LockID) {
	p.broadcast(event.ReleaseRec(tid, l))
}

// AcquireShared broadcasts a rwlock read-lock.
func (p *Pipeline) AcquireShared(tid vc.TID, l event.LockID) {
	p.broadcast(event.AcquireSharedRec(tid, l))
}

// ReleaseShared broadcasts a rwlock read-unlock.
func (p *Pipeline) ReleaseShared(tid vc.TID, l event.LockID) {
	p.broadcast(event.ReleaseSharedRec(tid, l))
}

// Fork broadcasts thread creation.
func (p *Pipeline) Fork(parent, child vc.TID) {
	p.broadcast(event.ForkRec(parent, child))
}

// Join broadcasts thread join.
func (p *Pipeline) Join(parent, child vc.TID) {
	p.broadcast(event.JoinRec(parent, child))
}

// BarrierArrive broadcasts a barrier arrival.
func (p *Pipeline) BarrierArrive(tid vc.TID, b event.BarrierID) {
	p.broadcast(event.BarrierArriveRec(tid, b))
}

// BarrierDepart broadcasts a barrier departure.
func (p *Pipeline) BarrierDepart(tid vc.TID, b event.BarrierID) {
	p.broadcast(event.BarrierDepartRec(tid, b))
}

// ChanSend broadcasts a channel send (Go-native sync; every clock replica
// pairs sends and receives by per-channel FIFO position, so broadcast
// ordering is exactly what keeps the pairing identical across shards).
func (p *Pipeline) ChanSend(tid vc.TID, ch event.ChanID, capacity int) {
	p.broadcast(event.ChanSendRec(tid, ch, capacity))
}

// ChanRecv broadcasts a channel receive.
func (p *Pipeline) ChanRecv(tid vc.TID, ch event.ChanID, capacity int) {
	p.broadcast(event.ChanRecvRec(tid, ch, capacity))
}

// ChanAck broadcasts an unbuffered send completion.
func (p *Pipeline) ChanAck(tid vc.TID, ch event.ChanID, capacity int) {
	p.broadcast(event.ChanAckRec(tid, ch, capacity))
}

// WGAdd broadcasts a WaitGroup counter increment.
func (p *Pipeline) WGAdd(tid vc.TID, wg event.WGID, delta int) {
	p.broadcast(event.WGAddRec(tid, wg, delta))
}

// WGDone broadcasts a WaitGroup decrement (a publication point for tid).
func (p *Pipeline) WGDone(tid vc.TID, wg event.WGID) {
	p.broadcast(event.WGDoneRec(tid, wg))
}

// WGWait broadcasts a WaitGroup wait completion.
func (p *Pipeline) WGWait(tid vc.TID, wg event.WGID) {
	p.broadcast(event.WGWaitRec(tid, wg))
}

// Malloc broadcasts heap allocation (a no-op for the detector, but kept in
// stream order so every replica sees the same event sequence).
func (p *Pipeline) Malloc(tid vc.TID, addr uint64, size uint64) {
	p.broadcast(event.MallocRec(tid, addr, size))
}

// Free broadcasts deallocation; each worker drops only its own blocks'
// shadow state.
func (p *Pipeline) Free(tid vc.TID, addr uint64, size uint64) {
	p.broadcast(event.FreeRec(tid, addr, size))
}

// Wait flushes pending batches, waits for every worker to drain, and merges
// the per-worker reports into a deterministic Result. It is idempotent;
// the Pipeline must not receive further events afterwards.
func (p *Pipeline) Wait() Result {
	if p.done {
		return p.result
	}
	p.done = true
	for w := range p.workers {
		p.shipPending(w)
	}
	for _, w := range p.workers {
		close(w.q)
	}
	p.wg.Wait()
	p.result = p.merge()
	return p.result
}

// merge combines worker outcomes: races ordered by completing-event
// sequence, statistics summed, with router-side counts (one per original
// access) replacing the per-shard access tallies.
func (p *Pipeline) merge() Result {
	var tagged []seqRace
	var st detector.Stats
	for _, w := range p.workers {
		tagged = append(tagged, w.races...)
		ws := w.det.Stats()
		st.SameEpoch += ws.SameEpoch
		st.HashPeakBytes += ws.HashPeakBytes
		st.VCPeakBytes += ws.VCPeakBytes
		st.BitmapPeakBytes += ws.BitmapPeakBytes
		st.TotalPeakBytes += ws.TotalPeakBytes
		st.Races += ws.Races
		st.Suppressed += ws.Suppressed
		st.SharingComparisons += ws.SharingComparisons
		st.Plane.NodesCur += ws.Plane.NodesCur
		st.Plane.NodesPeak += ws.Plane.NodesPeak
		st.Plane.VCBytesCur += ws.Plane.VCBytesCur
		st.Plane.VCBytesPeak += ws.Plane.VCBytesPeak
		st.Plane.NodeAllocs += ws.Plane.NodeAllocs
		st.Plane.NodeRecycles += ws.Plane.NodeRecycles
		st.Plane.LocCreations += ws.Plane.LocCreations
		st.VCPoolHits += ws.VCPoolHits
		st.VCPoolMisses += ws.VCPoolMisses
		st.VCInterns += ws.VCInterns
		st.Plane.LiveLocs += ws.Plane.LiveLocs
		st.Plane.Merges += ws.Plane.Merges
		st.Plane.Splits += ws.Plane.Splits
		st.Plane.Races += ws.Plane.Races
		// Sharing ratio: weight each shard's peak-time ratio by its peak
		// node count (the serial statistic is LiveLocs/Nodes at the peak).
		if ws.Plane.NodesPeak > 0 {
			st.Plane.AvgSharingAtPeak += ws.Plane.AvgSharing() * float64(ws.Plane.NodesPeak)
		}
	}
	if st.Plane.NodesPeak > 0 {
		st.Plane.AvgSharingAtPeak /= float64(st.Plane.NodesPeak)
	}
	st.Accesses = p.accesses
	st.NonShared = p.nonshared

	sort.Slice(tagged, func(i, j int) bool {
		if tagged[i].seq != tagged[j].seq {
			return tagged[i].seq < tagged[j].seq
		}
		return tagged[i].race.Addr < tagged[j].race.Addr
	})
	races := make([]detector.Race, len(tagged))
	var provs []detector.Provenance
	for i, t := range tagged {
		races[i] = t.race
		if t.prov != nil {
			if provs == nil {
				provs = make([]detector.Provenance, len(tagged))
			}
			provs[i] = *t.prov
		}
	}
	return Result{Races: races, Stats: st, Events: p.events, Provenance: provs}
}
