// Package server implements racedetectd's ingest tier: a TCP server that
// owns one sharded detection pipeline per client session, fed by the wire
// protocol (internal/wire). It is the service face of the detector — the
// happens-before analysis runs here, off the critical path of the traced
// program, the way SmartTrack- and RV-Predict-style tools decouple
// instrumentation from analysis.
//
// # Session model
//
// One Hello frame opens (or resumes) a session; a session owns one
// pipeline.Pipeline configured from the negotiated granularity and shard
// count. Batch frames are decoded into pooled columnar batches and handed
// to the pipeline in sequence order (pipeline.TakeCols: a one-worker
// session's worker usually applies the decoded batch itself, uncopied);
// the server acknowledges applied batch sequences on a negotiated cadence,
// which gives the client a bounded in-flight window (backpressure: if the
// detection workers fall behind, acks slow, the window fills, and the
// producer blocks instead of ballooning server memory). Close drains the
// pipeline and returns the merged race report.
//
// A connection drop without Close detaches the session; it lingers for
// Options.SessionLinger so the client can reconnect and resume (replaying
// only unacknowledged batches — the sequence numbers dedup the overlap),
// after which it is aborted and its worker goroutines reclaimed.
//
// # Limits
//
// Per-connection read deadlines, a frame-size ceiling, and a session cap
// bound the damage of slow, bloated, or excessive clients. Shutdown stops
// accepting, aborts lingering sessions, and waits for live sessions to
// finish until the context expires, then force-closes — the SIGTERM drain
// path of cmd/racedetectd.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detector"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options configure a Server. The zero value is usable: every field has a
// production-lean default.
type Options struct {
	// MaxSessions caps concurrently open sessions (default 64).
	MaxSessions int
	// MaxFrameBytes caps one frame's payload (default wire.DefaultMaxFrameBytes).
	MaxFrameBytes uint32
	// ReadTimeout is the per-frame read deadline (default 30s). A client
	// that stalls longer is treated as disconnected.
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default 10s).
	WriteTimeout time.Duration
	// Window caps the granted in-flight batch window (default 64).
	Window int
	// AckEvery caps the acknowledgement cadence in batches (default 8; the
	// granted cadence never exceeds half the granted window).
	AckEvery int
	// MaxWorkers caps the per-session detection shard count a Hello may
	// request (default 4; requests of 0 get 1).
	MaxWorkers int
	// SessionLinger keeps a detached session resumable after its
	// connection drops before aborting it (default 10s).
	SessionLinger time.Duration
	// Logger, when non-nil, receives structured session lifecycle records
	// with typed fields (session id, granularity, workers, ...). Nil turns
	// logging off.
	Logger *slog.Logger
	// Telemetry, when non-nil, is the registry the server's racedetectd_*
	// families and per-session (session-labeled) pipeline/detector families
	// are registered on. Nil makes the server create its own registry, so
	// the HTTP sidecar always has metrics to serve.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives server dispatch and shard apply spans
	// for traced batches, and backs the /debug/spans endpoint. Nil makes
	// the server create a bounded tracer of its own (so traced sessions
	// always have a span sink without unbounded growth).
	Tracer *telemetry.Tracer
	// NoTrace refuses Hello.Trace: sessions are never granted distributed
	// tracing and the server never sees span-context prefixes. The zero
	// value grants tracing to clients that ask — absent-means-untraced
	// keeps old clients unaffected either way.
	NoTrace bool
	// NoProvenance refuses Hello.Provenance: detectors run without the
	// race-provenance flight recorder regardless of what clients request.
	NoProvenance bool
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.MaxFrameBytes == 0 {
		o.MaxFrameBytes = wire.DefaultMaxFrameBytes
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.AckEvery <= 0 {
		o.AckEvery = 8
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 4
	}
	if o.SessionLinger <= 0 {
		o.SessionLinger = 10 * time.Second
	}
	return o
}

// session is one client detection session. Its pipeline is fed only by
// the connection that currently owns it; ownership hand-off (detach on
// disconnect, attach on resume) is guarded by the server mutex.
type session struct {
	id       uint64
	hello    wire.Hello
	pl       *pipeline.Pipeline
	window   int
	ackEvery int
	traced   bool // granted Hello.Trace: span-context batch prefixes accepted
	prov     bool // granted Hello.Provenance: detectors carry flight recorders
	opened   time.Time

	// lastSeq is the highest batch sequence applied; lastAcked the highest
	// acknowledged. Only the owning connection touches them.
	lastSeq   uint64
	lastAcked uint64

	// seqApplied/eventsApplied mirror lastSeq and the applied record count
	// as atomics, so introspection (/sessions) can read them while the
	// owning connection streams.
	seqApplied    atomic.Uint64
	eventsApplied atomic.Uint64

	attached bool        // guarded by Server.mu
	conn     net.Conn    // owning connection while attached; guarded by Server.mu
	linger   *time.Timer // guarded by Server.mu

	// closedFrame is set on a session resumed from the closed-report
	// cache: the detection work is done and only the encoded Report frame
	// remains to re-deliver. Such a session has no pipeline.
	closedFrame []byte
}

// closedReport retains a closed session's encoded Report frame for
// SessionLinger, so a client whose connection died between the server
// writing the report and reading it can resume and retry its Close —
// without this window the report would be lost exactly once.
type closedReport struct {
	lastSeq  uint64
	window   int
	ackEvery int
	frame    []byte
	timer    *time.Timer
}

// serverMetrics are the registry-backed racedetectd_* counters. Session
// lifecycle counters (sessionsTotal, sessionsAborted) are incremented while
// holding Server.mu, so any snapshot taken under the same lock observes a
// state where the counter invariants against the session map hold (the old
// mixed atomic/mutex snapshot could see, e.g., an active session its total
// had not counted yet).
type serverMetrics struct {
	sessionsTotal   *telemetry.Counter
	sessionsAborted *telemetry.Counter
	batchesTotal    *telemetry.Counter
	eventsTotal     *telemetry.Counter
	racesTotal      *telemetry.Counter
	bytesRead       *telemetry.Counter
	framesRejected  *telemetry.Counter
}

// Server accepts wire-protocol connections and runs detection sessions.
type Server struct {
	opts   Options
	reg    *telemetry.Registry
	met    serverMetrics
	tracer *telemetry.Tracer
	log    *slog.Logger

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	sessions  map[uint64]*session
	closed    map[uint64]*closedReport
	nextID    uint64
	draining  bool
	wg        sync.WaitGroup

	// provMu guards provRecent, the bounded ring of recently reported
	// races (with their provenance) served by /debug/provenance.
	provMu     sync.Mutex
	provRecent []SessionRace

	startTime time.Time
}

// New returns a server with opts (zero-value fields defaulted).
func New(opts Options) *Server {
	s := &Server{
		opts:      opts.withDefaults(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		sessions:  make(map[uint64]*session),
		closed:    make(map[uint64]*closedReport),
		startTime: time.Now(),
	}
	s.reg = s.opts.Telemetry
	if s.reg == nil {
		s.reg = telemetry.New()
	}
	telemetry.RegisterProcessMetrics(s.reg)
	s.tracer = s.opts.Tracer
	if s.tracer == nil {
		s.tracer = telemetry.NewBoundedTracer(4096)
	}
	s.log = s.opts.Logger
	if s.log == nil {
		s.log = telemetry.NewDiscardLogger()
	}
	s.met = serverMetrics{
		sessionsTotal:   s.reg.Counter("racedetectd_sessions_total", "Sessions ever opened."),
		sessionsAborted: s.reg.Counter("racedetectd_sessions_aborted_total", "Sessions dropped without a clean Close."),
		batchesTotal:    s.reg.Counter("racedetectd_batches_total", "Batch frames applied to detection pipelines."),
		eventsTotal:     s.reg.Counter("racedetectd_events_total", "Event records applied to detection pipelines."),
		racesTotal:      s.reg.Counter("racedetectd_races_total", "Races reported by completed sessions."),
		bytesRead:       s.reg.Counter("racedetectd_bytes_read_total", "Wire bytes ingested (headers and payloads)."),
		framesRejected:  s.reg.Counter("racedetectd_frames_rejected_total", "Frames refused (bad magic, CRC, size, or protocol)."),
	}
	s.reg.GaugeFunc("racedetectd_sessions_active", "Open detection sessions (attached or lingering).",
		func() float64 { return float64(s.SessionCount()) })
	s.reg.GaugeFunc("racedetectd_queue_depth", "Batches queued to detection workers across sessions.",
		func() float64 { return float64(s.queueDepth()) })
	s.reg.GaugeFunc("racedetectd_draining", "1 while the server is shutting down.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	s.reg.GaugeFunc("racedetectd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.startTime).Seconds() })
	return s
}

// Registry returns the server's metric registry (never nil) — the same
// registry the HTTP sidecar exposes.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// queueDepth sums the live sessions' pipeline queues.
func (s *Server) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := 0
	for _, sess := range s.sessions {
		if sess.pl != nil {
			depth += sess.pl.QueueDepth()
		}
	}
	return depth
}

// Tracer returns the server's span sink (never nil) — the same tracer the
// /debug/spans endpoint exposes.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// ErrServerClosed is returned by Serve after Shutdown closes the listener.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr (TCP) and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections from l until l is closed (by Shutdown or the
// caller). Each connection runs its own handler goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown drains the server: it stops accepting, aborts lingering
// detached sessions, and waits for active connections to finish until ctx
// expires, after which remaining connections are force-closed (their
// sessions are aborted cleanly — pipelines drained, goroutines reclaimed).
// Returns nil on a clean drain, ctx.Err() when force-close was needed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	// Abort sessions nobody is attached to; nothing will resume them now.
	var detached []*session
	for _, sess := range s.sessions {
		if !sess.attached {
			detached = append(detached, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range detached {
		s.abortSession(sess)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// ---- connection handling ----

// protoErr is a session-fatal protocol violation reported to the client.
type protoErr struct {
	code string
	msg  string
}

func (e *protoErr) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	var sess *session
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if sess != nil {
			s.detachSession(sess)
		}
	}()

	rd := wire.NewReader(conn, s.opts.MaxFrameBytes)
	var scratch []byte
	var prevBytes int64
	for {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		h, payload, err := rd.ReadFrame()
		if cur := int64(rd.PayloadBytes()) + int64(rd.Frames())*wire.HeaderSize; cur != prevBytes {
			s.met.bytesRead.Add(uint64(cur - prevBytes))
			prevBytes = cur
		}
		if err != nil {
			if errors.Is(err, wire.ErrBadMagic) || errors.Is(err, wire.ErrCRC) || errors.Is(err, wire.ErrTooLarge) {
				s.met.framesRejected.Inc()
				scratch = s.writeError(conn, scratch, wire.CodeProtocol, err.Error())
			}
			return
		}
		sess, scratch, err = s.dispatch(conn, sess, h, payload, scratch)
		if err != nil {
			var pe *protoErr
			if errors.As(err, &pe) {
				s.met.framesRejected.Inc()
				scratch = s.writeError(conn, scratch, pe.code, pe.msg)
			}
			return
		}
		if sess == nil && h.Type == wire.TypeClose {
			return // clean end of session
		}
	}
}

// dispatch handles one decoded frame. It returns the (possibly changed)
// session; a *protoErr error is reported to the client before the
// connection closes.
func (s *Server) dispatch(conn net.Conn, sess *session, h wire.Header, payload []byte, scratch []byte) (*session, []byte, error) {
	out := scratch
	switch h.Type {
	case wire.TypeHello:
		if sess != nil {
			return sess, out, &protoErr{wire.CodeProtocol, "duplicate hello"}
		}
		var hello wire.Hello
		if err := wire.UnmarshalControl(payload, &hello); err != nil {
			return nil, out, &protoErr{wire.CodeProtocol, err.Error()}
		}
		newSess, ack, err := s.openSession(hello, conn)
		if err != nil {
			return nil, out, err
		}
		out = out[:0]
		out, merr := wire.AppendControlFrame(out, wire.Header{Type: wire.TypeHelloAck, Session: newSess.id}, ack)
		if merr != nil {
			s.detachSession(newSess)
			return nil, out, merr
		}
		if werr := s.writeFrame(conn, out); werr != nil {
			s.detachSession(newSess)
			return nil, out, werr
		}
		if newSess.closedFrame != nil {
			s.log.Info("session resumed after close; report pending re-delivery",
				"session", newSess.id)
		} else {
			verb := "session opened"
			if hello.Resume != 0 {
				verb = "session resumed"
			}
			s.log.Info(verb,
				"session", newSess.id,
				"granularity", detector.Granularity(hello.Granularity).String(),
				"workers", newSess.pl.Workers(),
				"window", newSess.window,
				"resume_seq", ack.ResumeSeq,
				"trace", newSess.traced,
				"provenance", newSess.prov)
		}
		return newSess, out, nil

	case wire.TypeBatch:
		if sess == nil {
			return nil, out, &protoErr{wire.CodeNoSession, "batch before hello"}
		}
		if h.Seq <= sess.lastSeq {
			// Duplicate from a resume replay; acknowledge so the client's
			// window frees up, but do not re-apply.
			out = out[:0]
			out = wire.AppendFrame(out, wire.Header{Type: wire.TypeAck, Session: sess.id, Seq: sess.lastSeq}, nil)
			sess.lastAcked = sess.lastSeq
			return sess, out, s.writeFrame(conn, out)
		}
		if sess.closedFrame != nil {
			// Resumed after a clean close: every real batch was already
			// applied (the dedup branch above covers replays), so a new
			// sequence number cannot be legitimate.
			return sess, out, &protoErr{wire.CodeProtocol,
				fmt.Sprintf("batch %d after session close", h.Seq)}
		}
		if h.Seq != sess.lastSeq+1 {
			return sess, out, &protoErr{wire.CodeProtocol,
				fmt.Sprintf("batch sequence gap: got %d, want %d", h.Seq, sess.lastSeq+1)}
		}
		trace, clientSpan, recs, terr := wire.SplitTracePrefix(h, payload)
		if terr != nil {
			return sess, out, &protoErr{wire.CodeProtocol, terr.Error()}
		}
		c, err := wire.DecodeColumnarCols(recs)
		if err != nil {
			return sess, out, &protoErr{wire.CodeProtocol, err.Error()}
		}
		n := c.Len()
		if trace != 0 {
			// Continue the client's trace: a server.dispatch span parented
			// under the client.batch root, with the pipeline stamping the
			// shipped shard batches so apply spans nest beneath it.
			dispatchSpan := telemetry.NewTraceID()
			start := time.Now()
			sess.pl.SetTrace(trace, dispatchSpan)
			sess.pl.TakeCols(c)
			sess.pl.SetTrace(0, 0)
			s.tracer.RecordSpan(telemetry.SpanRecord{
				Trace: trace, Span: dispatchSpan, Parent: clientSpan,
				Name: "server.dispatch", Process: "racedetectd",
				Dur:  time.Since(start).Nanoseconds(),
				Args: map[string]any{"session": sess.id, "seq": h.Seq, "recs": n},
			})
		} else {
			sess.pl.TakeCols(c) // the pipeline owns c from here on
		}
		sess.lastSeq = h.Seq
		sess.seqApplied.Store(h.Seq)
		sess.eventsApplied.Add(uint64(n))
		s.met.batchesTotal.Inc()
		s.met.eventsTotal.Add(uint64(n))
		if sess.lastSeq-sess.lastAcked >= uint64(sess.ackEvery) {
			out = out[:0]
			out = wire.AppendFrame(out, wire.Header{Type: wire.TypeAck, Session: sess.id, Seq: sess.lastSeq}, nil)
			sess.lastAcked = sess.lastSeq
			return sess, out, s.writeFrame(conn, out)
		}
		return sess, out, nil

	case wire.TypeFlush:
		if sess == nil {
			return nil, out, &protoErr{wire.CodeNoSession, "flush before hello"}
		}
		out = out[:0]
		out = wire.AppendFrame(out, wire.Header{Type: wire.TypeFlushAck, Session: sess.id, Seq: sess.lastSeq}, nil)
		sess.lastAcked = sess.lastSeq
		return sess, out, s.writeFrame(conn, out)

	case wire.TypeClose:
		if sess == nil {
			return nil, out, &protoErr{wire.CodeNoSession, "close before hello"}
		}
		if sess.closedFrame != nil {
			// Re-deliver the retained report to a client that lost its
			// connection after the original Close was processed.
			if werr := s.writeFrame(conn, sess.closedFrame); werr != nil {
				return sess, out, werr
			}
			s.dropClosed(sess.id)
			s.log.Info("session report re-delivered", "session", sess.id)
			return nil, out, nil
		}
		res := sess.pl.Wait() // idempotent: a retried Close reuses the merged result
		rep := wire.FromResult(res)
		rep.LastSeq = sess.lastSeq // drain watermark for cluster merge
		out = out[:0]
		out, merr := wire.AppendControlFrame(out, wire.Header{Type: wire.TypeReport, Session: sess.id, Seq: sess.lastSeq}, rep)
		if merr != nil {
			return nil, out, merr
		}
		// Commit the close before the client can see it: once it holds
		// the report, /metrics and /sessions must already count it. A
		// failed write loses nothing — the client resumes and its retried
		// Close re-delivers the retained frame.
		s.met.racesTotal.Add(uint64(len(rep.Races)))
		s.recordRaces(sess.id, rep.Races)
		s.retireSession(sess, out)
		s.log.Info("session closed",
			"session", sess.id, "batches", sess.lastSeq,
			"events", res.Events, "races", len(rep.Races))
		return nil, out, s.writeFrame(conn, out)

	default:
		return sess, out, &protoErr{wire.CodeProtocol, fmt.Sprintf("unexpected frame %v", h.Type)}
	}
}

func (s *Server) writeFrame(conn net.Conn, frame []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	_, err := conn.Write(frame)
	return err
}

func (s *Server) writeError(conn net.Conn, scratch []byte, code, msg string) []byte {
	out := scratch[:0]
	out, err := wire.AppendControlFrame(out, wire.Header{Type: wire.TypeError}, wire.ErrorPayload{Code: code, Message: msg})
	if err == nil {
		s.writeFrame(conn, out)
	}
	return out
}

// ---- session lifecycle ----

// openSession validates a Hello and creates a new session or resumes a
// detached one.
func (s *Server) openSession(hello wire.Hello, conn net.Conn) (*session, wire.HelloAck, error) {
	var ack wire.HelloAck
	if hello.Version != wire.Version {
		return nil, ack, &protoErr{wire.CodeBadVersion,
			fmt.Sprintf("protocol version %d, want %d", hello.Version, wire.Version)}
	}
	if g := detector.Granularity(hello.Granularity); g != detector.Byte && g != detector.Word && g != detector.Dynamic {
		return nil, ack, &protoErr{wire.CodeBadOptions, fmt.Sprintf("unknown granularity %d", hello.Granularity)}
	}
	if hello.Workers < 0 {
		return nil, ack, &protoErr{wire.CodeBadOptions, fmt.Sprintf("negative workers %d", hello.Workers)}
	}
	// Trace and provenance grants: the client asks, the server grants
	// unless operationally disabled, and absence on either side means off.
	traced := hello.Trace && !s.opts.NoTrace
	prov := hello.Provenance && !s.opts.NoProvenance

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ack, &protoErr{wire.CodeDraining, "server is draining"}
	}

	if hello.Resume != 0 {
		sess, ok := s.sessions[hello.Resume]
		if !ok {
			if cr, ok := s.closed[hello.Resume]; ok {
				// The session closed cleanly but the client may not have
				// received the report; hand back a pipeline-less session
				// that can only re-deliver the retained report frame.
				sess := &session{
					id: hello.Resume, window: cr.window, ackEvery: cr.ackEvery,
					lastSeq: cr.lastSeq, lastAcked: cr.lastSeq,
					closedFrame: cr.frame, attached: true,
				}
				ack = wire.HelloAck{SessionID: sess.id, Window: cr.window,
					AckEvery: cr.ackEvery, ResumeSeq: cr.lastSeq}
				return sess, ack, nil
			}
			return nil, ack, &protoErr{wire.CodeNoSession,
				fmt.Sprintf("session %d not resumable (expired or never existed)", hello.Resume)}
		}
		if sess.attached {
			// The resume raced the old connection's teardown (the client
			// noticed the drop before we did). Close the stale connection
			// so its handler detaches promptly, and tell the client to
			// retry — CodeBusy is transient, not permanent.
			if sess.conn != nil {
				sess.conn.Close()
			}
			return nil, ack, &protoErr{wire.CodeBusy,
				fmt.Sprintf("session %d still attached to its previous connection; retry", hello.Resume)}
		}
		if sess.linger != nil {
			sess.linger.Stop()
			sess.linger = nil
		}
		sess.attached = true
		sess.conn = conn
		ack = wire.HelloAck{SessionID: sess.id, Window: sess.window, AckEvery: sess.ackEvery,
			ResumeSeq: sess.lastSeq, Trace: sess.traced}
		return sess, ack, nil
	}

	if len(s.sessions) >= s.opts.MaxSessions {
		return nil, ack, &protoErr{wire.CodeSessionLimit,
			fmt.Sprintf("session limit %d reached", s.opts.MaxSessions)}
	}
	workers := hello.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > s.opts.MaxWorkers {
		workers = s.opts.MaxWorkers
	}
	window := hello.Window
	if window <= 0 || window > s.opts.Window {
		window = s.opts.Window
	}
	ackEvery := s.opts.AckEvery
	if ackEvery > window/2 {
		ackEvery = window / 2
	}
	if ackEvery < 1 {
		ackEvery = 1
	}
	var tracer *telemetry.Tracer
	if traced {
		tracer = s.tracer
	}
	s.nextID++
	sess := &session{
		id:    s.nextID,
		hello: hello,
		pl: pipeline.New(pipeline.Options{
			Workers: workers,
			Tracer:  tracer,
			Detector: detector.Config{
				Granularity:      detector.Granularity(hello.Granularity),
				NoInitState:      hello.NoInitState,
				NoInitSharing:    hello.NoInitSharing,
				WriteGuidedReads: hello.WriteGuidedReads,
				ReadReset:        hello.ReadReset,
				ReshareInterval:  hello.ReshareInterval,
				Provenance:       prov,
			},
			// Per-session labeled view: the session's pipeline/detector
			// families appear on /metrics as session="<id>" series and are
			// pruned when the session retires or aborts (the cardinality
			// valve for a long-lived server).
			Telemetry: s.reg.With(telemetry.Labels{"session": fmt.Sprint(s.nextID)}),
		}),
		window:   window,
		ackEvery: ackEvery,
		traced:   traced,
		prov:     prov,
		opened:   time.Now(),
		attached: true,
		conn:     conn,
	}
	s.sessions[sess.id] = sess
	s.met.sessionsTotal.Inc()
	ack = wire.HelloAck{SessionID: sess.id, Window: window, AckEvery: ackEvery, Trace: traced}
	return sess, ack, nil
}

// maxRecentRaces bounds the /debug/provenance ring.
const maxRecentRaces = 1024

// recordRaces retains a closed session's reported races (with provenance,
// when the session negotiated it) for /debug/provenance.
func (s *Server) recordRaces(session uint64, races []wire.ReportRace) {
	if len(races) == 0 {
		return
	}
	s.provMu.Lock()
	for _, r := range races {
		s.provRecent = append(s.provRecent, SessionRace{Session: session, Race: r})
	}
	if n := len(s.provRecent); n > maxRecentRaces {
		s.provRecent = append(s.provRecent[:0], s.provRecent[n-maxRecentRaces:]...)
	}
	s.provMu.Unlock()
}

// RecentRaces returns the most recently reported races (newest last), the
// data behind /debug/provenance.
func (s *Server) RecentRaces() []SessionRace {
	s.provMu.Lock()
	defer s.provMu.Unlock()
	return append([]SessionRace(nil), s.provRecent...)
}

// pruneSessionSeries drops the session-labeled metric series of a finished
// session, bounding the exposition's cardinality over the server's life.
func (s *Server) pruneSessionSeries(id uint64) {
	label := fmt.Sprint(id)
	s.reg.Prune(func(_ string, l telemetry.Labels) bool {
		v, ok := l["session"]
		return !ok || v != label
	})
}

// detachSession is called when a connection drops without Close: the
// session lingers for resume, then is aborted.
func (s *Server) detachSession(sess *session) {
	s.mu.Lock()
	if _, live := s.sessions[sess.id]; !live {
		s.mu.Unlock()
		return // already closed by a Close frame
	}
	sess.attached = false
	sess.conn = nil
	if s.draining {
		s.mu.Unlock()
		s.abortSession(sess)
		return
	}
	sess.linger = time.AfterFunc(s.opts.SessionLinger, func() { s.abortSession(sess) })
	s.mu.Unlock()
	s.log.Info("session detached; lingering for resume",
		"session", sess.id, "linger", s.opts.SessionLinger)
}

// abortSession discards a session that will never complete: the pipeline
// is drained so its worker goroutines exit, and the partial result is
// dropped.
func (s *Server) abortSession(sess *session) {
	s.mu.Lock()
	if _, live := s.sessions[sess.id]; !live || sess.attached {
		// Already closed, or resumed between the linger firing and now.
		s.mu.Unlock()
		return
	}
	delete(s.sessions, sess.id)
	// Counted under the lock so snapshots never see the session both gone
	// from the map and missing from the aborted total.
	s.met.sessionsAborted.Inc()
	s.mu.Unlock()
	sess.pl.Wait()
	s.pruneSessionSeries(sess.id)
	s.log.Warn("session aborted; client never closed",
		"session", sess.id, "batches", sess.seqApplied.Load(),
		"events", sess.eventsApplied.Load())
}

// retireSession removes a cleanly closed session and retains its encoded
// Report frame for SessionLinger. TCP write success does not mean the
// client read the report — if the connection dies in that window, the
// client resumes the session id and retries its Close against the
// retained frame instead of losing the report forever.
func (s *Server) retireSession(sess *session, reportFrame []byte) {
	cr := &closedReport{
		lastSeq:  sess.lastSeq,
		window:   sess.window,
		ackEvery: sess.ackEvery,
		frame:    append([]byte(nil), reportFrame...),
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	if sess.linger != nil {
		sess.linger.Stop()
		sess.linger = nil
	}
	// The timer captures only the id: capturing sess would keep its
	// pipeline and shard detectors reachable for the whole linger.
	id := sess.id
	cr.timer = time.AfterFunc(s.opts.SessionLinger, func() { s.dropClosed(id) })
	s.closed[sess.id] = cr
	s.mu.Unlock()
	s.pruneSessionSeries(sess.id)
}

// dropClosed discards a retained closed-session report.
func (s *Server) dropClosed(id uint64) {
	s.mu.Lock()
	if cr, ok := s.closed[id]; ok {
		cr.timer.Stop()
		delete(s.closed, id)
	}
	s.mu.Unlock()
}

// SessionCount returns the number of open sessions (attached or
// lingering).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
