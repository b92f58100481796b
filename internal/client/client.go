// Package client streams an instrumentation event stream to a remote
// racedetectd (internal/server) over the wire protocol. Client implements
// event.Sink, so anything that can drive a detector in-process — the
// execution engine, a recorded trace replay — can instead stream to a
// detection service with one line changed (race.Options.Remote).
//
// # Streaming model
//
// Each event is encoded into the current batch's columns on the caller's
// thread as it arrives (wire.ColumnEncoder); a full batch is framed with a
// per-session batch sequence number. In the default asynchronous mode a
// background sender goroutine writes frames while the producer keeps
// running; the producer only blocks when the negotiated in-flight window
// is full (the server acknowledges applied sequences, so a slow detection
// pipeline back-pressures the producer instead of growing unbounded
// buffers).
// Options.Sync is the strict-ordering fallback: every batch is written on
// the caller's thread and acknowledged before the next is encoded, which
// pins the producer to the server's pace — useful for debugging and for
// producers that must not run ahead of detection.
//
// # Reconnect
//
// Unacknowledged frames are retained until acked; an acknowledged frame's
// buffer then carries a later batch, so steady-state streaming allocates
// no frame buffers. If the connection drops, the client redials with
// exponential backoff and resumes its session (Hello.Resume); the server
// replies with the last applied batch sequence, the client replays only
// the frames past it, and server-side sequence dedup makes the overlap
// harmless. A session the server has already expired is a permanent
// error — the stream cannot be replayed from the beginning — and is
// reported from Close.
//
// Close flushes the partial batch, drains the sender, sends the Close
// frame, and blocks for the server's race report (flush-on-close).
package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"sync"

	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Options configure a client connection.
type Options struct {
	// Addr is the racedetectd TCP address (host:port).
	Addr string
	// Hello carries the detection configuration to negotiate (granularity,
	// shard count, detector knobs). Version, Resume and Window are managed
	// by the client and ignored here.
	Hello wire.Hello
	// Window is the requested in-flight batch window (default 32; the
	// server may grant less).
	Window int
	// Sync selects the strict-ordering fallback: batches are written
	// synchronously on the caller's thread and each is acknowledged before
	// the next send. Default is asynchronous streaming.
	Sync bool
	// BatchPolicy, when non-nil, adapts the batch flush threshold to
	// transport back-pressure: outbox occupancy at ship time and the
	// server's ack round trip (see event.BatchPolicy). Nil ships fixed
	// event.DefaultBatchSize batches.
	BatchPolicy *event.BatchPolicy

	// Backpressure, when non-nil, receives the same outbox-occupancy and
	// ack-RTT observations as BatchPolicy — the hook the budgeted
	// sampling lane's feedback controller (sampling.Controller) plugs
	// into. Independent of BatchPolicy: either, both or neither may be
	// set.
	Backpressure event.BackpressureObserver
	// DialTimeout bounds one dial attempt (default 5s).
	DialTimeout time.Duration
	// MaxAttempts bounds dial attempts per connect or reconnect
	// (default 5).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential retry backoff
	// (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ReportTimeout bounds the wait for the final report after Close
	// (default 60s).
	ReportTimeout time.Duration
	// Logf, when non-nil, receives reconnect/resume diagnostics.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, receives the client transport instrument
	// families: batch/event/reconnect/resend counters (mirroring Stats),
	// a frame-encode latency histogram and an ack round-trip histogram.
	// Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// TraceSample is the per-batch distributed-trace sampling rate in
	// [0, 1] (0 = tracing off). Sampled batches carry a span-context
	// payload prefix (wire.FlagTraced) — but only after the server grants
	// tracing in HelloAck.Trace, so a pre-trace server never sees traced
	// frames. Sampling is deterministic in the batch sequence number.
	TraceSample float64
	// Tracer, when non-nil, receives one client.batch root span per
	// sampled batch, closed when the server's ack arrives (span duration =
	// ack round trip). The same trace ID exemplifies the ack-RTT histogram.
	Tracer *telemetry.Tracer
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 32
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.ReportTimeout <= 0 {
		o.ReportTimeout = 60 * time.Second
	}
	return o
}

// Stats counts the client's transport work.
type Stats struct {
	Batches      uint64 // batch frames written (excluding resends)
	Events       uint64 // event records encoded
	PayloadBytes uint64 // batch payload bytes written (encoded, excluding frame headers and resends)
	Reconnects   uint64 // successful re-dials after a drop
	Resends      uint64 // frames replayed on resume
}

// RemoteError is a server-reported protocol error (an Error frame).
type RemoteError struct {
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("racedetectd: %s: %s", e.Code, e.Message)
}

// permanent reports whether retrying the connection could ever succeed.
func (e *RemoteError) permanent() bool {
	switch e.Code {
	case wire.CodeBadVersion, wire.CodeBadOptions, wire.CodeNoSession, wire.CodeProtocol:
		return true
	}
	return false // session-limit, draining: the operator may free capacity
}

// sentFrame is one encoded batch frame retained until acknowledged.
type sentFrame struct {
	seq    uint64
	data   []byte
	events int
	// trace/span are the frame's sampled span context (0 = unsampled);
	// the root span closes when the ack prunes the frame.
	trace uint64
	span  uint64
	// sentAt is the wall time of the frame's last (re)transmission; the
	// ack round-trip histogram observes now-sentAt when the frame is
	// pruned. Zero when telemetry is disabled.
	sentAt time.Time
	// flush marks a sentinel queued by Flush: no payload, seq is the
	// watermark to drain to. Ordering through the outbox guarantees every
	// batch queued before the sentinel ships before the Flush frame.
	flush bool
}

// clientMetrics is the transport instrument set; the zero value (all-nil
// instruments) is the disabled set and every update is a no-op.
type clientMetrics struct {
	batches    *telemetry.Counter
	events     *telemetry.Counter
	reconnects *telemetry.Counter
	resends    *telemetry.Counter
	encodeNS   *telemetry.Histogram
	ackRTT     *telemetry.Histogram

	// rawBytes counts what the stream would cost at fixed width
	// (records × wire.RecSize); payload counts the batch payload bytes
	// actually encoded. Their quotient is the live wire_compression_ratio
	// gauge.
	rawBytes *telemetry.Counter
	payload  *telemetry.Counter
}

func newClientMetrics(r *telemetry.Registry) clientMetrics {
	if r == nil {
		return clientMetrics{}
	}
	m := clientMetrics{
		batches:    r.Counter("client_batches_total", "Batch frames written (excluding resends)."),
		events:     r.Counter("client_events_total", "Event records streamed."),
		reconnects: r.Counter("client_reconnects_total", "Successful re-dials after a connection drop."),
		resends:    r.Counter("client_resends_total", "Frames replayed on session resume."),
		encodeNS:   r.Histogram("client_encode_ns", "Per-batch frame assembly latency (events are encoded as they arrive)."),
		ackRTT:     r.Histogram("client_ack_rtt_ns", "Send-to-ack round trip per acknowledged frame."),
		rawBytes:   r.Counter("wire_raw_bytes_total", "Batch bytes the stream would cost at fixed width (records x 37)."),
		payload:    r.Counter("wire_payload_bytes_total", "Batch payload bytes encoded."),
	}
	raw, payload := m.rawBytes, m.payload
	r.GaugeFunc("wire_compression_ratio", "Fixed-width bytes over encoded payload bytes (1 = no compression).",
		func() float64 {
			p := payload.Load()
			if p == 0 {
				return 0
			}
			return float64(raw.Load()) / float64(p)
		})
	return m
}

// Client is a remote-detection event.Sink. The Sink methods must be
// called from a single goroutine (the standard Sink contract); Close may
// be called once after the stream ends.
type Client struct {
	opts Options
	// col encodes the current batch's events as they arrive; seq numbers
	// them across the stream and target is the flush threshold in records.
	// All three belong to the event thread.
	col    wire.ColumnEncoder
	seq    uint64
	target int

	mu       sync.Mutex
	cond     *sync.Cond
	conn     net.Conn
	gen      int // connection generation, bumps on every successful dial
	connDead bool

	sessionID uint64
	window    int
	traced    bool // server granted HelloAck.Trace and TraceSample > 0
	batchSeq  uint64
	acked     uint64
	unacked   []sentFrame
	// free holds the buffers of frames an ack pruned from unacked; the next
	// batch frame is encoded into one of them. A buffer is recycled only
	// once its frame is acknowledged, never earlier, because a resume
	// replays every unacknowledged frame byte for byte.
	free [][]byte

	err         error
	report      *wire.Report
	reportReady bool

	outbox   chan sentFrame // async mode only
	sendDone chan struct{}

	stats Stats
	met   clientMetrics
}

// Dial connects to a racedetectd and negotiates a session. The returned
// Client is ready to receive events.
func Dial(opts Options) (*Client, error) {
	c := &Client{opts: opts.withDefaults()}
	c.met = newClientMetrics(c.opts.Telemetry)
	if c.opts.Sync {
		// Strict ordering keeps exactly one batch in flight; a window of 1
		// also forces the server's ack cadence to every batch, which the
		// per-batch ack wait depends on.
		c.opts.Window = 1
	}
	c.cond = sync.NewCond(&c.mu)
	c.setTarget(0)

	c.mu.Lock()
	err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if p := c.opts.BatchPolicy; p != nil {
		c.setTarget(p.Target())
	}
	if !c.opts.Sync {
		c.outbox = make(chan sentFrame, c.opts.Window)
		c.sendDone = make(chan struct{})
		go c.sender()
	}
	return c, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// SessionID returns the server-assigned session identifier.
func (c *Client) SessionID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionID
}

// Traced reports whether the server granted distributed tracing for this
// session (HelloAck.Trace with a non-zero TraceSample).
func (c *Client) Traced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traced
}

// Stats returns a snapshot of the transport counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Err returns the first fatal transport error, if any. Events sent after
// a fatal error are dropped; Close reports the same error.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// ---- connection management ----

// connectLocked dials (with backoff), performs the Hello/HelloAck
// handshake — resuming the existing session when one is open — replays
// unacknowledged frames, and starts the receiver goroutine. Called with
// c.mu held. On permanent failure it sets c.err.
func (c *Client) connectLocked() error {
	if c.err != nil {
		return c.err
	}
	resuming := c.sessionID != 0
	backoff := c.opts.BackoffBase
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > c.opts.BackoffMax {
				backoff = c.opts.BackoffMax
			}
		}
		conn, ack, err := c.handshake()
		if err != nil {
			lastErr = err
			var re *RemoteError
			if errors.As(err, &re) && re.permanent() {
				c.err = err
				c.cond.Broadcast()
				return err
			}
			c.logf("connect attempt %d/%d failed: %v", attempt+1, c.opts.MaxAttempts, err)
			continue
		}
		c.traced = ack.Trace && c.opts.TraceSample > 0
		c.conn = conn
		c.connDead = false
		c.gen++
		c.sessionID = ack.SessionID
		c.window = ack.Window
		if ack.ResumeSeq > c.acked {
			c.acked = ack.ResumeSeq
			c.pruneAckedLocked()
		}
		if resuming {
			c.stats.Reconnects++
			c.met.reconnects.Inc()
			c.logf("resumed session %d at seq %d, replaying %d frame(s)",
				ack.SessionID, ack.ResumeSeq, len(c.unacked))
		}
		// Replay everything past the server's resume point.
		for i := range c.unacked {
			sf := &c.unacked[i]
			if err := c.writeLocked(sf.data); err != nil {
				lastErr = err
				c.markDeadLocked()
				break
			}
			if c.trackRTT() {
				sf.sentAt = time.Now() // RTT restarts at the retransmission
			}
			if resuming {
				c.stats.Resends++
				c.met.resends.Inc()
			}
		}
		if c.connDead {
			continue
		}
		go c.receive(conn, c.gen)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: could not connect to %s", c.opts.Addr)
	}
	c.err = fmt.Errorf("client: giving up after %d attempts: %w", c.opts.MaxAttempts, lastErr)
	c.cond.Broadcast()
	return c.err
}

// handshake dials and exchanges Hello/HelloAck on a fresh connection.
func (c *Client) handshake() (net.Conn, wire.HelloAck, error) {
	var ack wire.HelloAck
	conn, err := net.DialTimeout("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		return nil, ack, err
	}
	hello := c.opts.Hello
	hello.Version = wire.Version
	hello.Resume = c.sessionID
	hello.Window = c.opts.Window
	hello.Trace = c.opts.TraceSample > 0
	frame, err := wire.AppendControlFrame(nil, wire.Header{Type: wire.TypeHello}, hello)
	if err != nil {
		conn.Close()
		return nil, ack, err
	}
	conn.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	if _, err := conn.Write(frame); err != nil {
		conn.Close()
		return nil, ack, err
	}
	rd := wire.NewReader(conn, 0)
	h, payload, err := rd.ReadFrame()
	if err != nil {
		conn.Close()
		return nil, ack, err
	}
	switch h.Type {
	case wire.TypeHelloAck:
		if err := wire.UnmarshalControl(payload, &ack); err != nil {
			conn.Close()
			return nil, ack, err
		}
		conn.SetDeadline(time.Time{})
		return conn, ack, nil
	case wire.TypeError:
		var ep wire.ErrorPayload
		conn.Close()
		if err := wire.UnmarshalControl(payload, &ep); err != nil {
			return nil, ack, err
		}
		return nil, ack, &RemoteError{Code: ep.Code, Message: ep.Message}
	default:
		conn.Close()
		return nil, ack, fmt.Errorf("client: unexpected handshake frame %v", h.Type)
	}
}

func (c *Client) writeLocked(frame []byte) error {
	_, err := c.conn.Write(frame)
	return err
}

func (c *Client) markDeadLocked() {
	c.connDead = true
	if c.conn != nil {
		c.conn.Close()
	}
}

// trackRTT reports whether send times must be stamped: the ack-RTT
// histogram, the adaptive batch policy and root-span durations all
// consume them.
func (c *Client) trackRTT() bool {
	return c.met.ackRTT != nil || c.opts.BatchPolicy != nil ||
		c.opts.Backpressure != nil || (c.traced && c.opts.Tracer != nil)
}

func (c *Client) pruneAckedLocked() {
	i := 0
	for i < len(c.unacked) && c.unacked[i].seq <= c.acked {
		sf := &c.unacked[i]
		c.free = append(c.free, sf.data[:0])
		if !sf.sentAt.IsZero() {
			rtt := time.Since(sf.sentAt)
			c.met.ackRTT.ObserveTraced(uint64(rtt.Nanoseconds()), sf.trace)
			c.opts.BatchPolicy.ObserveRTT(rtt)
			if o := c.opts.Backpressure; o != nil {
				o.ObserveRTT(rtt)
			}
			if sf.trace != 0 && c.opts.Tracer != nil {
				c.opts.Tracer.RecordSpan(telemetry.SpanRecord{
					Trace: sf.trace, Span: sf.span,
					Name: "client.batch", Process: "client", Dur: rtt.Nanoseconds(),
					Args: map[string]any{"seq": sf.seq, "events": sf.events},
				})
			}
		}
		i++
	}
	if i > 0 {
		c.unacked = append(c.unacked[:0], c.unacked[i:]...)
	}
}

// receive is the per-connection reader: it applies acks (freeing the
// window), captures the final report, and marks the connection dead on
// any read error so the send path reconnects.
func (c *Client) receive(conn net.Conn, gen int) {
	rd := wire.NewReader(conn, 0)
	for {
		h, payload, err := rd.ReadFrame()
		c.mu.Lock()
		if c.gen != gen {
			c.mu.Unlock()
			return // superseded by a reconnect
		}
		if err != nil {
			c.markDeadLocked()
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		switch h.Type {
		case wire.TypeAck, wire.TypeFlushAck:
			if h.Seq > c.acked {
				c.acked = h.Seq
				c.pruneAckedLocked()
			}
			c.cond.Broadcast()
		case wire.TypeReport:
			var rep wire.Report
			if err := wire.UnmarshalControl(payload, &rep); err != nil {
				c.err = err
			} else {
				c.report = &rep
				c.reportReady = true
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		case wire.TypeError:
			var ep wire.ErrorPayload
			if err := wire.UnmarshalControl(payload, &ep); err != nil {
				c.err = err
			} else {
				c.err = &RemoteError{Code: ep.Code, Message: ep.Message}
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// ---- send path ----

// setTarget sets the flush threshold from a batch policy target: clamped
// to [1, event.DefaultBatchSize], with 0 meaning the fixed default.
func (c *Client) setTarget(t int) {
	if t <= 0 || t > event.DefaultBatchSize {
		t = event.DefaultBatchSize
	}
	c.target = t
}

// push encodes one event's record into the current batch, numbering it,
// and ships the batch once it reaches the flush threshold.
func (c *Client) push(r event.Rec) {
	c.seq++
	r.Seq = c.seq
	c.col.Append(r)
	if c.col.Len() >= c.target {
		c.flushBatch()
	}
}

// flushBatch frames the current batch into a recycled buffer, empties the
// encoder, and hands the frame to the sender (async) or sends it inline
// and waits for its ack (sync). It also services the adaptive policy:
// outbox occupancy is observed at ship time, and the next flush threshold
// is refreshed from the policy target. The encode histogram times the
// frame assembly only; the events were encoded as they arrived.
func (c *Client) flushBatch() {
	n := c.col.Len()
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.batchSeq++
	seq := c.batchSeq
	session := c.sessionID
	traced := c.traced
	fatal := c.err != nil
	var buf []byte
	if k := len(c.free); k > 0 {
		buf = c.free[k-1]
		c.free = c.free[:k-1]
	}
	c.mu.Unlock()
	if fatal {
		c.col.Reset()
		return // the stream is already lost; drop cheaply
	}
	// Deterministic per-batch sampling: the same batch sequence samples the
	// same way on every run, and an unsampled batch's frame is byte
	// identical to the untraced encoding.
	var trace, span uint64
	if traced && telemetry.Sampled(seq, c.opts.TraceSample) {
		trace, span = telemetry.NewTraceID(), telemetry.NewTraceID()
	}
	var encStart time.Time
	if c.met.encodeNS != nil {
		encStart = time.Now()
	}
	frame := c.col.AppendFrame(buf, wire.Header{Session: session, Seq: seq}, trace, span)
	if c.met.encodeNS != nil {
		c.met.encodeNS.ObserveSince(encStart)
	}
	c.col.Reset()
	c.met.rawBytes.Add(uint64(n) * wire.RecSize)
	c.met.payload.Add(uint64(len(frame) - wire.HeaderSize))
	sf := sentFrame{seq: seq, data: frame, events: n, trace: trace, span: span}
	if c.opts.Sync {
		c.send(sf, true)
		if p := c.opts.BatchPolicy; p != nil {
			c.setTarget(p.Target()) // RTT observations arrived with the ack
		}
		return
	}
	if p := c.opts.BatchPolicy; p != nil {
		// Producer's view of the consumer queue at ship time: an empty
		// outbox means the sender is keeping up (favor latency), a full
		// one means the window or the wire is the bottleneck (favor
		// throughput). The receiver goroutine feeds ack RTTs concurrently;
		// Target is read here, on the event thread, only.
		p.ObserveQueue(len(c.outbox), cap(c.outbox))
		c.setTarget(p.Target())
	}
	if o := c.opts.Backpressure; o != nil {
		o.ObserveQueue(len(c.outbox), cap(c.outbox))
	}
	c.outbox <- sf // bounded; the sender always drains, even after errors
}

// sender is the async-mode writer goroutine.
func (c *Client) sender() {
	for sf := range c.outbox {
		if sf.flush {
			c.sendFlush(sf.seq)
			continue
		}
		c.send(sf, false)
	}
	close(c.sendDone)
}

// sendFlush writes a Flush frame and blocks until the server acknowledges
// every batch through target. Flush frames are not retained for resume
// (they carry no events), so after any reconnect — which replays the
// retained batches — the flush is re-sent on the fresh connection.
func (c *Client) sendFlush(target uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && c.acked < target {
		if c.connDead || c.conn == nil {
			if c.connectLocked() != nil {
				return // fatal: c.err is set and broadcast
			}
			continue
		}
		frame := wire.AppendFrame(nil, wire.Header{
			Type: wire.TypeFlush, Session: c.sessionID, Seq: target,
		}, nil)
		if err := c.writeLocked(frame); err != nil {
			c.markDeadLocked()
			continue
		}
		for c.err == nil && c.acked < target && !c.connDead {
			c.cond.Wait()
		}
	}
}

// send writes one frame, respecting the in-flight window, reconnecting as
// needed; with waitAck it also blocks until the frame is acknowledged
// (strict ordering). Fatal errors are recorded in c.err and the frame is
// dropped.
func (c *Client) send(sf sentFrame, waitAck bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil {
		if c.connDead || c.conn == nil {
			if c.connectLocked() != nil {
				return
			}
			continue
		}
		if sf.seq-c.acked > uint64(c.window) {
			c.cond.Wait() // window full: wait for acks (or conn death)
			continue
		}
		if err := c.writeLocked(sf.data); err != nil {
			c.markDeadLocked()
			continue
		}
		if c.trackRTT() {
			sf.sentAt = time.Now()
		}
		c.unacked = append(c.unacked, sf)
		c.stats.Batches++
		c.stats.Events += uint64(sf.events)
		c.stats.PayloadBytes += uint64(len(sf.data) - wire.HeaderSize)
		c.met.batches.Inc()
		c.met.events.Add(uint64(sf.events))
		break
	}
	if !waitAck {
		return
	}
	for c.err == nil && c.acked < sf.seq {
		if c.connDead || c.conn == nil {
			if c.connectLocked() != nil {
				return // reconnect replays unacked frames, including sf
			}
			continue
		}
		c.cond.Wait()
	}
}

// ---- event.Sink ----

// Read encodes a shared-memory read.
func (c *Client) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	c.push(event.ReadRec(tid, addr, size, pc))
}

// Write encodes a shared-memory write.
func (c *Client) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	c.push(event.WriteRec(tid, addr, size, pc))
}

// Acquire encodes a lock acquisition.
func (c *Client) Acquire(tid vc.TID, l event.LockID) { c.push(event.AcquireRec(tid, l)) }

// Release encodes a lock release.
func (c *Client) Release(tid vc.TID, l event.LockID) { c.push(event.ReleaseRec(tid, l)) }

// AcquireShared encodes a rwlock read-lock.
func (c *Client) AcquireShared(tid vc.TID, l event.LockID) { c.push(event.AcquireSharedRec(tid, l)) }

// ReleaseShared encodes a rwlock read-unlock.
func (c *Client) ReleaseShared(tid vc.TID, l event.LockID) { c.push(event.ReleaseSharedRec(tid, l)) }

// Fork encodes thread creation.
func (c *Client) Fork(parent, child vc.TID) { c.push(event.ForkRec(parent, child)) }

// Join encodes a thread join.
func (c *Client) Join(parent, child vc.TID) { c.push(event.JoinRec(parent, child)) }

// BarrierArrive encodes a barrier arrival.
func (c *Client) BarrierArrive(tid vc.TID, b event.BarrierID) { c.push(event.BarrierArriveRec(tid, b)) }

// BarrierDepart encodes a barrier departure.
func (c *Client) BarrierDepart(tid vc.TID, b event.BarrierID) { c.push(event.BarrierDepartRec(tid, b)) }

// Malloc encodes a heap allocation.
func (c *Client) Malloc(tid vc.TID, addr, size uint64) { c.push(event.MallocRec(tid, addr, size)) }

// Free encodes a heap deallocation.
func (c *Client) Free(tid vc.TID, addr, size uint64) { c.push(event.FreeRec(tid, addr, size)) }

// ---- event.GoSink ----

// ChanSend encodes a channel send.
func (c *Client) ChanSend(tid vc.TID, ch event.ChanID, capacity int) {
	c.push(event.ChanSendRec(tid, ch, capacity))
}

// ChanRecv encodes a channel receive.
func (c *Client) ChanRecv(tid vc.TID, ch event.ChanID, capacity int) {
	c.push(event.ChanRecvRec(tid, ch, capacity))
}

// ChanAck encodes an unbuffered send completion.
func (c *Client) ChanAck(tid vc.TID, ch event.ChanID, capacity int) {
	c.push(event.ChanAckRec(tid, ch, capacity))
}

// WGAdd encodes a WaitGroup counter increment.
func (c *Client) WGAdd(tid vc.TID, wg event.WGID, delta int) { c.push(event.WGAddRec(tid, wg, delta)) }

// WGDone encodes a WaitGroup decrement.
func (c *Client) WGDone(tid vc.TID, wg event.WGID) { c.push(event.WGDoneRec(tid, wg)) }

// WGWait encodes a WaitGroup wait completion.
func (c *Client) WGWait(tid vc.TID, wg event.WGID) { c.push(event.WGWaitRec(tid, wg)) }

// ---- drain ----

// LastAcked returns the highest batch sequence the server has
// acknowledged. After a successful Flush it equals the number of batches
// shipped; a cluster coordinator reports it as the member's watermark
// when the member fails mid-stream.
func (c *Client) LastAcked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// Flush ships any partial batch and blocks until the server has applied
// and acknowledged every event sent so far, then returns the transport
// error state. The client remains usable for further events — Flush is a
// mid-stream drain barrier (migration uses it as the drain-to-watermark
// step), not a shutdown. Must be called from the event thread, like the
// Sink methods.
func (c *Client) Flush() error {
	c.flushBatch() // ship the partial batch; the encoder stays usable
	c.mu.Lock()
	target := c.batchSeq
	c.mu.Unlock()
	if c.opts.Sync || target == 0 {
		// Sync mode acks every batch inline, so the stream is already
		// drained; with no batches shipped there is nothing to wait for.
		return c.Err()
	}
	c.outbox <- sentFrame{seq: target, flush: true}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && c.acked < target {
		c.cond.Wait()
	}
	return c.err
}

// ---- shutdown ----

// Close flushes the partial batch, drains the sender, sends the Close
// frame and waits for the server's race report. It returns the report or
// the first fatal transport error.
func (c *Client) Close() (*wire.Report, error) {
	c.flushBatch() // ship the partial batch
	if !c.opts.Sync {
		close(c.outbox)
		<-c.sendDone
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if c.err != nil {
			break
		}
		if c.connDead || c.conn == nil {
			if c.connectLocked() != nil {
				break
			}
		}
		frame := wire.AppendFrame(nil, wire.Header{
			Type: wire.TypeClose, Session: c.sessionID, Seq: c.batchSeq,
		}, nil)
		if err := c.writeLocked(frame); err != nil {
			c.markDeadLocked()
			continue
		}
		// Bound the report wait: the receiver's blocked read fails at the
		// deadline and marks the connection dead, which wakes us.
		c.conn.SetReadDeadline(time.Now().Add(c.opts.ReportTimeout))
		for c.err == nil && !c.reportReady && !c.connDead {
			c.cond.Wait()
		}
		if c.reportReady {
			c.conn.Close()
			return c.report, nil
		}
		// Connection died before the report arrived; reconnect resumes the
		// session (the server has not seen Close, so it lingers) and
		// retries the Close.
	}
	if c.conn != nil {
		c.conn.Close()
	}
	if c.err == nil {
		c.err = fmt.Errorf("client: no report after %d close attempts", c.opts.MaxAttempts)
	}
	return nil, c.err
}
