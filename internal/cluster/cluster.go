// Package cluster fans one instrumentation event stream out across a
// fleet of racedetectd servers and merges their verdicts into one report
// — a horizontal scale-out of the same partitioning internal/pipeline
// performs across worker goroutines inside one server.
//
// The partitioning key is the shadow-block id (addr >> shadow.BlockShift),
// the unit the detector's state is keyed on: every access to a block is
// routed to the one member owning it (through the hash-slot ring, see
// ring.go), so each member holds a disjoint slice of the shadow space and
// sees its slice's accesses in stream order. Sync events — locks, fork/
// join, barriers, channels, WaitGroups — are broadcast to every member in
// stream order relative to the accesses routed there, so each member's
// clock replica observes the same happens-before order the program
// produced. That is the whole correctness argument, inherited from the
// in-process pipeline: per-block detection state depends only on that
// block's accesses plus the (replicated) clock state, so the union of
// per-member race sets equals the single-process race set.
//
// Each member connection is an ordinary internal/client session with its
// own sequence space, windowed acks and resume — the coordinator composes
// N of them without touching the wire protocol.
package cluster

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Options configure a cluster session.
type Options struct {
	// Members is the racedetectd address list (host:port each). Routing
	// is deterministic in the list order: the same members in the same
	// order replay a stream identically.
	Members []string
	// Hello carries the detection configuration every member negotiates
	// (granularity, shard count, detector knobs). Version, Resume and
	// Window are managed per connection.
	Hello wire.Hello
	// Window is the requested per-member in-flight batch window.
	Window int
	// Sync selects strict-ordering transport on every member connection.
	Sync bool
	// NewBatchPolicy, when non-nil, is called once per member connection
	// to build its adaptive batch policy. A policy holds single-connection
	// state (RTT and queue observations), so members cannot share one.
	NewBatchPolicy func() *event.BatchPolicy

	// Backpressure, when non-nil, is shared by every member connection:
	// each member client feeds its outbox-occupancy and ack-RTT
	// observations into it. The budgeted sampling lane passes its
	// feedback controller here (sampling.Controller is mutex-guarded, so
	// one controller can absorb the whole fleet's signals).
	Backpressure event.BackpressureObserver
	// DialTimeout bounds one dial attempt per member.
	DialTimeout time.Duration
	// ReportTimeout bounds the per-member report wait at Close.
	ReportTimeout time.Duration
	// Migration, when non-nil, schedules a single slot migration
	// mid-stream (see migrate.go).
	Migration *Migration
	// Logf, when non-nil, receives coordinator diagnostics (legacy printf
	// sink; superseded by Logger when both are set).
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured coordinator records with
	// typed fields (member addr, slot counts, merge timings). When nil,
	// records render onto Logf; when both are nil, logging is off.
	Logger *slog.Logger
	// Telemetry, when non-nil, receives the cluster instrument families
	// (cluster_members, cluster_fanout_events_total{member},
	// cluster_broadcast_events_total, cluster_merge_ns) and is shared
	// with every member client, so the transport series (ack RTT,
	// batches, wire bytes) aggregate fleet-wide.
	Telemetry *telemetry.Registry
	// TraceSample is the per-batch distributed-trace sampling rate handed
	// to every member client (0 = tracing off). Each member negotiates the
	// grant with its own server, so a mixed fleet degrades per member.
	TraceSample float64
	// Tracer, when non-nil, receives every member client's root spans plus
	// the coordinator's cluster.merge span at Close.
	Tracer *telemetry.Tracer
}

// MemberError reports a cluster-member failure: which member, and the
// highest batch sequence the member acknowledged before failing — the
// resume watermark an operator (or a future rebalancer) would continue
// from.
type MemberError struct {
	Addr      string
	LastAcked uint64
	Err       error
}

func (e *MemberError) Error() string {
	return fmt.Sprintf("cluster member %s failed (last acked seq %d): %v", e.Addr, e.LastAcked, e.Err)
}

func (e *MemberError) Unwrap() error { return e.Err }

// member is one coordinator-managed server connection.
type member struct {
	addr string
	cl   *client.Client
}

// Sink is the fan-out event.Sink: it implements the full Sink/GoSink
// surface, routing accesses by shadow block and broadcasting sync events.
// Like every Sink it must be driven from a single goroutine; Close may be
// called once after the stream ends.
type Sink struct {
	opts    Options
	ring    *Ring
	members []*member
	met     metrics
	log     *slog.Logger

	// Router-side counts, mirroring pipeline's: one per original event,
	// before splitting/broadcast multiplies them. They override the
	// merged per-member tallies at Close.
	seq       uint64 // events observed (accesses + sync + heap)
	accesses  uint64 // shared accesses (pre-split)
	nonshared uint64 // accesses dropped by the stack filter

	// Migration state (see migrate.go).
	mig       *Migration
	journal   []jrec
	migrated  bool
	movedSlot int // -1 until a migration completed
	movedFrom int
	lastSlot  int // slot of the most recent access piece (auto-pick)

	closed bool
	report *wire.Report
	err    error
}

// Dial connects to every member and negotiates one session per
// connection. On any dial failure the already-opened sessions are closed
// and a *MemberError naming the failed member is returned.
func Dial(opts Options) (*Sink, error) {
	if len(opts.Members) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	s := &Sink{
		opts:      opts,
		ring:      NewRing(len(opts.Members)),
		mig:       opts.Migration,
		movedSlot: -1,
		lastSlot:  -1,
	}
	s.met = newMetrics(opts.Telemetry, nil)
	s.log = opts.Logger
	if s.log == nil {
		s.log = telemetry.NewLogfLogger(opts.Logf)
	}
	for _, addr := range opts.Members {
		cl, err := client.Dial(s.clientOptions(addr))
		if err != nil {
			for _, m := range s.members {
				m.cl.Close()
			}
			return nil, &MemberError{Addr: addr, Err: err}
		}
		s.members = append(s.members, &member{addr: addr, cl: cl})
		s.met.addMember(addr)
	}
	s.met.members.Set(int64(len(s.members)))
	s.log.Info("cluster connected",
		"members", len(s.members),
		"slots", fmt.Sprintf("%v", s.ring.Counts(len(s.members))),
		"trace_sample", s.opts.TraceSample)
	return s, nil
}

// logf is the legacy printf sink, still used by migration diagnostics.
func (s *Sink) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// clientOptions builds the per-member transport configuration.
func (s *Sink) clientOptions(addr string) client.Options {
	co := client.Options{
		Addr:          addr,
		Hello:         s.opts.Hello,
		Window:        s.opts.Window,
		Sync:          s.opts.Sync,
		DialTimeout:   s.opts.DialTimeout,
		ReportTimeout: s.opts.ReportTimeout,
		Logf:          s.opts.Logf,
		Telemetry:     s.opts.Telemetry,
		TraceSample:   s.opts.TraceSample,
		Tracer:        s.opts.Tracer,
		Backpressure:  s.opts.Backpressure,
	}
	if s.opts.NewBatchPolicy != nil {
		co.BatchPolicy = s.opts.NewBatchPolicy()
	}
	return co
}

// Members returns the current member addresses (grows by one after a
// completed migration).
func (s *Sink) Members() []string {
	out := make([]string, len(s.members))
	for i, m := range s.members {
		out[i] = m.addr
	}
	return out
}

// Err returns the first member's fatal transport error as a
// *MemberError, or nil. Events sent after a member failure are dropped by
// that member's client; Close reports the same error.
func (s *Sink) Err() error {
	for _, m := range s.members {
		if err := m.cl.Err(); err != nil {
			return &MemberError{Addr: m.addr, LastAcked: m.cl.LastAcked(), Err: err}
		}
	}
	return nil
}

// ---- routing ----

// access splits one memory access at shadow-block boundaries — exactly
// like pipeline.access — and routes each piece to the member owning its
// block's slot.
func (s *Sink) access(op event.Op, tid vc.TID, addr uint64, size uint32, pc event.PC) {
	s.seq++
	if event.NonShared(addr) {
		s.nonshared++
		s.maybeMigrate()
		return // the serial detector's first-line filter, hoisted to the router
	}
	s.accesses++
	lo, hi := addr, addr+uint64(size)
	for lo < hi {
		end := (lo | (shadow.BlockSize - 1)) + 1
		if end > hi {
			end = hi
		}
		slot := s.ring.Slot(lo >> shadow.BlockShift)
		m := s.ring.OwnerOfSlot(slot)
		r := event.Rec{Op: op, Tid: tid, Addr: lo, Size: uint32(end - lo), PC: pc}
		event.ApplyRec(s.members[m].cl, &r)
		s.met.fanout[m].Inc()
		s.lastSlot = slot
		s.record(int16(slot), r)
		lo = end
	}
	s.maybeMigrate()
}

// syncEvent broadcasts one sync/heap record to every member, in stream
// order relative to each member's accesses.
func (s *Sink) syncEvent(r event.Rec) {
	s.seq++
	for _, m := range s.members {
		event.ApplyRec(m.cl, &r)
	}
	s.met.broadcast.Inc()
	s.record(-1, r)
	s.maybeMigrate()
}

// ---- event.Sink ----

// Read routes a shared read to its blocks' owners.
func (s *Sink) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	s.access(event.OpRead, tid, addr, size, pc)
}

// Write routes a shared write to its blocks' owners.
func (s *Sink) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	s.access(event.OpWrite, tid, addr, size, pc)
}

// Acquire broadcasts a lock acquisition to every clock replica.
func (s *Sink) Acquire(tid vc.TID, l event.LockID) {
	s.syncEvent(event.AcquireRec(tid, l))
}

// Release broadcasts a lock release.
func (s *Sink) Release(tid vc.TID, l event.LockID) {
	s.syncEvent(event.ReleaseRec(tid, l))
}

// AcquireShared broadcasts a rwlock read-lock.
func (s *Sink) AcquireShared(tid vc.TID, l event.LockID) {
	s.syncEvent(event.AcquireSharedRec(tid, l))
}

// ReleaseShared broadcasts a rwlock read-unlock.
func (s *Sink) ReleaseShared(tid vc.TID, l event.LockID) {
	s.syncEvent(event.ReleaseSharedRec(tid, l))
}

// Fork broadcasts thread creation.
func (s *Sink) Fork(parent, child vc.TID) {
	s.syncEvent(event.ForkRec(parent, child))
}

// Join broadcasts a thread join.
func (s *Sink) Join(parent, child vc.TID) {
	s.syncEvent(event.JoinRec(parent, child))
}

// BarrierArrive broadcasts a barrier arrival.
func (s *Sink) BarrierArrive(tid vc.TID, b event.BarrierID) {
	s.syncEvent(event.BarrierArriveRec(tid, b))
}

// BarrierDepart broadcasts a barrier departure.
func (s *Sink) BarrierDepart(tid vc.TID, b event.BarrierID) {
	s.syncEvent(event.BarrierDepartRec(tid, b))
}

// Malloc broadcasts heap allocation (kept in stream order on every
// member, like the in-process pipeline).
func (s *Sink) Malloc(tid vc.TID, addr, size uint64) {
	s.syncEvent(event.MallocRec(tid, addr, size))
}

// Free broadcasts deallocation; each member drops only its own blocks'
// shadow state.
func (s *Sink) Free(tid vc.TID, addr, size uint64) {
	s.syncEvent(event.FreeRec(tid, addr, size))
}

// ---- event.GoSink ----

// ChanSend broadcasts a channel send.
func (s *Sink) ChanSend(tid vc.TID, ch event.ChanID, capacity int) {
	s.syncEvent(event.ChanSendRec(tid, ch, capacity))
}

// ChanRecv broadcasts a channel receive.
func (s *Sink) ChanRecv(tid vc.TID, ch event.ChanID, capacity int) {
	s.syncEvent(event.ChanRecvRec(tid, ch, capacity))
}

// ChanAck broadcasts an unbuffered send completion.
func (s *Sink) ChanAck(tid vc.TID, ch event.ChanID, capacity int) {
	s.syncEvent(event.ChanAckRec(tid, ch, capacity))
}

// WGAdd broadcasts a WaitGroup counter increment.
func (s *Sink) WGAdd(tid vc.TID, wg event.WGID, delta int) {
	s.syncEvent(event.WGAddRec(tid, wg, delta))
}

// WGDone broadcasts a WaitGroup decrement.
func (s *Sink) WGDone(tid vc.TID, wg event.WGID) {
	s.syncEvent(event.WGDoneRec(tid, wg))
}

// WGWait broadcasts a WaitGroup wait completion.
func (s *Sink) WGWait(tid vc.TID, wg event.WGID) {
	s.syncEvent(event.WGWaitRec(tid, wg))
}

// ---- shutdown ----

// Close drains every member (flush-on-close), merges the per-member
// reports into one deterministic Report (wire.MergeReports ordering), and
// overrides the summed access tallies with the router-side counts — one
// per original event, exactly as pipeline.merge does for its shards, so
// the merged report matches a single-process run. On a member failure the
// remaining members are still drained and the first failure is returned
// as a *MemberError carrying the member's last acked sequence.
func (s *Sink) Close() (*wire.Report, error) {
	if s.closed {
		return s.report, s.err
	}
	s.closed = true
	reports := make([]wire.Report, 0, len(s.members))
	var firstErr error
	for i, m := range s.members {
		acked := m.cl.LastAcked()
		rep, err := m.cl.Close()
		if err != nil {
			if a := m.cl.LastAcked(); a > acked {
				acked = a
			}
			me := &MemberError{Addr: m.addr, LastAcked: acked, Err: err}
			s.log.Warn("cluster member failed",
				"member", m.addr, "last_acked", acked, "err", err)
			if firstErr == nil {
				firstErr = me
			}
			continue
		}
		r := *rep
		if s.movedSlot >= 0 && i == s.movedFrom {
			r = s.dropMovedRaces(r)
		}
		reports = append(reports, r)
	}
	if firstErr != nil {
		s.err = firstErr
		return nil, s.err
	}
	start := time.Now()
	merged := wire.MergeReports(reports...)
	// Router-count overrides: splitting multiplies per-member Accesses
	// (one count per piece) and broadcasting multiplies Events; the
	// coordinator saw each original event exactly once.
	merged.Stats.Accesses = s.accesses
	merged.Stats.NonShared = s.nonshared
	merged.Events = s.seq
	s.met.mergeNS.ObserveSince(start)
	if s.opts.Tracer != nil {
		s.opts.Tracer.RecordSpan(telemetry.SpanRecord{
			Trace:   telemetry.NewTraceID(),
			Span:    telemetry.NewTraceID(),
			Name:    "cluster.merge",
			Process: "cluster",
			Start:   start.UnixNano(),
			Dur:     int64(time.Since(start)),
			Args: map[string]any{
				"members": len(reports),
				"races":   len(merged.Races),
			},
		})
	}
	s.report = &merged
	return s.report, nil
}

// dropMovedRaces removes the old owner's verdicts for the migrated slot:
// the new owner re-derived them (and any later ones) from the journal
// replay, so keeping both would duplicate every pre-migration race in the
// moved slot.
func (s *Sink) dropMovedRaces(r wire.Report) wire.Report {
	kept := make([]wire.ReportRace, 0, len(r.Races))
	for _, x := range r.Races {
		if s.ring.Slot(x.Addr>>shadow.BlockShift) == s.movedSlot {
			continue
		}
		kept = append(kept, x)
	}
	r.Stats.Races -= uint64(len(r.Races) - len(kept))
	r.Races = kept
	return r
}
