package client

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/vc"
	"repro/internal/wire"
	"repro/workloads"
)

// startServer starts a racedetectd on a loopback listener; shut down at
// test cleanup.
func startServer(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && err != server.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

func sortDetRaces(rs []detector.Race) []detector.Race {
	out := append([]detector.Race(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.PC < b.PC
	})
	return out
}

// runRemote streams the named workload through a client built from opts
// and returns the remote report plus the in-process reference detector.
func runRemote(t *testing.T, opts Options, name string, g detector.Granularity) (*wire.Report, *detector.Detector, *Client) {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ref := detector.New(detector.Config{Granularity: g})
	sim.Run(spec.Program(), ref, sim.Options{Seed: 42})

	opts.Hello.Granularity = uint8(g)
	cl, err := Dial(opts)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(spec.Program(), cl, sim.Options{Seed: 42})
	rep, err := cl.Close()
	if err != nil {
		t.Fatalf("Close: %v (client err: %v)", err, cl.Err())
	}
	return rep, ref, cl
}

func checkEquivalent(t *testing.T, rep *wire.Report, ref *detector.Detector) {
	t.Helper()
	want := sortDetRaces(ref.Races())
	got := sortDetRaces(rep.DetectorRaces())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("race sets differ:\nin-process (%d): %v\nremote (%d): %v",
			len(want), want, len(got), got)
	}
	if rep.Stats.Accesses != ref.Stats().Accesses {
		t.Fatalf("Accesses: in-process %d, remote %d",
			ref.Stats().Accesses, rep.Stats.Accesses)
	}
}

func TestAsyncStreaming(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	rep, ref, cl := runRemote(t,
		Options{Addr: addr, Hello: wire.Hello{Workers: 2}},
		"pbzip2", detector.Dynamic)
	checkEquivalent(t, rep, ref)
	st := cl.Stats()
	if st.Batches == 0 || st.Events == 0 {
		t.Fatalf("no transport activity recorded: %+v", st)
	}
	if st.Reconnects != 0 || st.Resends != 0 {
		t.Fatalf("unexpected reconnects on a healthy link: %+v", st)
	}
}

func TestSyncMode(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	rep, ref, cl := runRemote(t,
		Options{Addr: addr, Sync: true, Hello: wire.Hello{Workers: 2}},
		"pbzip2", detector.Word)
	checkEquivalent(t, rep, ref)
	// Strict ordering keeps exactly one batch in flight: everything the
	// client sent must be acknowledged by the time Close returns.
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.window != 1 {
		t.Fatalf("sync mode negotiated window %d, want 1", cl.window)
	}
	if len(cl.unacked) != 0 || cl.acked != cl.batchSeq {
		t.Fatalf("unacked frames after sync close: %d (acked %d of %d)",
			len(cl.unacked), cl.acked, cl.batchSeq)
	}
}

// TestReconnectResume kills the client's TCP connection mid-stream and
// checks the session resumes: the final report must still match the
// in-process run exactly (no lost or duplicated events).
func TestReconnectResume(t *testing.T) {
	_, addr := startServer(t, server.Options{SessionLinger: 5 * time.Second})
	spec, err := workloads.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	ref := detector.New(detector.Config{Granularity: detector.Dynamic})
	sim.Run(spec.Program(), ref, sim.Options{Seed: 42})

	cl, err := Dial(Options{
		Addr:        addr,
		Hello:       wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 2},
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sever the link a few times while the stream is in flight.
	stop := make(chan struct{})
	killed := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				killed <- n
				return
			case <-time.After(10 * time.Millisecond):
			}
			cl.mu.Lock()
			if cl.conn != nil && !cl.connDead {
				cl.conn.Close() // receiver sees the error and marks it dead
				n++
			}
			cl.mu.Unlock()
		}
		killed <- n
	}()

	sim.Run(spec.Program(), cl, sim.Options{Seed: 42})
	// Stop the killer before Close: a kill that lands after the report is
	// already delivered needs no reconnect, which would make the
	// Reconnects assertion below meaningless.
	close(stop)
	n := <-killed
	rep, err := cl.Close()
	if err != nil {
		t.Fatalf("Close after disconnects: %v", err)
	}
	checkEquivalent(t, rep, ref)

	if n > 0 {
		st := cl.Stats()
		if st.Reconnects == 0 {
			t.Fatalf("connection killed %d time(s) but no reconnects recorded: %+v", n, st)
		}
		t.Logf("killed %d connection(s): %+v", n, st)
	}
}

// lossyConn loses the next swallow frames written to it, as a link that
// fails mid-stream loses the frames in flight, and closes the connection
// with the last one; later writes fail on the closed connection. The
// client writes under its mutex, so swallow needs no lock of its own.
type lossyConn struct {
	net.Conn
	swallow int
}

func (l *lossyConn) Write(p []byte) (int, error) {
	if l.swallow == 0 {
		return l.Conn.Write(p)
	}
	l.swallow--
	if l.swallow == 0 {
		l.Conn.Close()
	}
	return len(p), nil
}

// dropper forwards the event stream to a Client. From the event thread,
// each time another `every` batches have been acknowledged it makes the
// client's link lossy (see lossyConn), up to max times, so every drop
// leaves frames the server never saw for the resume to replay.
type dropper struct {
	*Client
	every, next uint64
	max, drops  int
	events      int
}

func (d *dropper) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	d.maybeDrop()
	d.Client.Read(tid, addr, size, pc)
}

func (d *dropper) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	d.maybeDrop()
	d.Client.Write(tid, addr, size, pc)
}

func (d *dropper) maybeDrop() {
	if d.events++; d.drops == d.max || d.events%64 != 0 {
		return
	}
	c := d.Client
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acked < d.next || c.conn == nil || c.connDead {
		return
	}
	c.conn = &lossyConn{Conn: c.conn, swallow: 2}
	d.drops++
	d.next = c.acked + d.every
}

// TestReconnectResumeRecycledFrames drops the link only after several
// windows of batches have been acknowledged, so the frames the resume
// replays sit in buffers recycled from acknowledged frames. With window
// W, at most 2W+2 frame buffers ever exist (outbox, unacknowledged
// window, the sender's frame and the one being encoded), so every frame
// past sequence 2W+2, and so every frame lost here, reuses one. The
// server must accept every replayed frame — its CRC and sequence checks
// reject nothing; its only refusals are resumes that raced the old
// connection's teardown — and the report must equal an undropped run's.
func TestReconnectResumeRecycledFrames(t *testing.T) {
	const window = 4
	srv, addr := startServer(t, server.Options{SessionLinger: 5 * time.Second})
	spec, err := workloads.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	var busy atomic.Int64 // resume handshakes refused with CodeBusy
	opts := Options{
		Addr:        addr,
		Hello:       wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 1},
		Window:      window,
		BackoffBase: time.Millisecond,
		Logf: func(_ string, args ...any) {
			for _, a := range args {
				var re *RemoteError
				if err, ok := a.(error); ok && errors.As(err, &re) && re.Code == wire.CodeBusy {
					busy.Add(1)
				}
			}
		},
	}
	stream := func(sink func(*Client) event.Sink) (*wire.Report, Stats) {
		cl, err := Dial(opts)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(spec.Build(2), sink(cl), sim.Options{Seed: 42})
		rep, err := cl.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		return rep, cl.Stats()
	}

	want, _ := stream(func(cl *Client) event.Sink { return cl })
	d := &dropper{every: 3 * window, next: 3 * window, max: 3}
	got, st := stream(func(cl *Client) event.Sink { d.Client = cl; return d })

	if d.drops == 0 {
		t.Fatal("the stream ended before any drop")
	}
	if st.Reconnects < uint64(d.drops) || st.Resends < uint64(d.drops) {
		t.Fatalf("%d drop(s) but %d reconnect(s), %d resend(s): every drop loses frames to replay",
			d.drops, st.Reconnects, st.Resends)
	}
	if n := srv.Registry().CounterValue("racedetectd_frames_rejected_total"); n != uint64(busy.Load()) {
		t.Fatalf("server rejected %d frame(s), of which %d were busy resumes", n, busy.Load())
	}
	if got.Events != want.Events || !reflect.DeepEqual(got.Races, want.Races) || got.Stats != want.Stats {
		t.Fatalf("report after %d drop(s) differs from the undropped run:\ngot  events %d, %d races, %+v\nwant events %d, %d races, %+v",
			d.drops, got.Events, len(got.Races), got.Stats, want.Events, len(want.Races), want.Stats)
	}
	t.Logf("%d drop(s): %+v", d.drops, st)
}

func TestDialFailureGivesUp(t *testing.T) {
	// An address that refuses connections: listen, then close.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	start := time.Now()
	_, err = Dial(Options{
		Addr:        addr,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("Dial to a dead address succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("Dial retried far past its budget: %v", time.Since(start))
	}
}

func TestPermanentRejectionIsImmediate(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	_, err := Dial(Options{
		Addr:        addr,
		Hello:       wire.Hello{Granularity: 99},
		BackoffBase: time.Second, // would make retries visible in test time
	})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if re.Code != wire.CodeBadOptions {
		t.Fatalf("code %q, want %q", re.Code, wire.CodeBadOptions)
	}
}

// TestFrameRecycleZeroAlloc pins the allocation-free send path: once the
// window has cycled, shipping one more full batch encodes it into the
// buffer of a frame an ack pruned, so it allocates nothing. It drives the
// Sink methods and the ack prune directly, playing the sender and the
// server itself: the socket write and the sender and receiver goroutines
// are left out so their runtime allocations cannot blur the count.
func TestFrameRecycleZeroAlloc(t *testing.T) {
	const window = 4
	c := &Client{opts: Options{Window: window}.withDefaults(), outbox: make(chan sentFrame, 1)}
	c.setTarget(0)
	ship := func() {
		for i := 0; i < event.DefaultBatchSize; i++ {
			c.Write(1, 0x1000+uint64(i%512)*8, 8, event.PC(i%7))
		}
		sf := <-c.outbox
		c.mu.Lock()
		defer c.mu.Unlock()
		c.unacked = append(c.unacked, sf)
		if len(c.unacked) == window { // the server acknowledges a full window
			c.acked = sf.seq
			c.pruneAckedLocked()
		}
	}
	for i := 0; i < 3*window; i++ {
		ship()
	}
	if got := testing.AllocsPerRun(50, ship); got != 0 {
		t.Fatalf("shipping a full batch after the window cycled: %v allocs/batch, want 0", got)
	}
}

// TestFramesMatchBatchEncoding pins the client's encode-as-you-go path to
// the protocol: a stream exercising every Sink and GoSink method, over
// several full batches and a partial one, must produce frames
// byte-identical to event.Encoder batches framed by wire.AppendBatchFrame.
func TestFramesMatchBatchEncoding(t *testing.T) {
	drive := func(s event.GoSink) {
		for i := 0; i < 5000; i++ {
			tid := vc.TID(i / 64 % 5)
			addr := 0x10000 + uint64(i*i%4096)*8
			switch i % 20 {
			case 0:
				s.Acquire(tid, event.LockID(i%3))
			case 1:
				s.Release(tid, event.LockID(i%3))
			case 2:
				s.AcquireShared(tid, event.LockID(7))
			case 3:
				s.ReleaseShared(tid, event.LockID(7))
			case 4:
				s.Fork(tid, tid+1)
			case 5:
				s.Join(tid, tid+1)
			case 6:
				s.BarrierArrive(tid, event.BarrierID(2))
			case 7:
				s.BarrierDepart(tid, event.BarrierID(2))
			case 8:
				s.Malloc(tid, addr, 256)
			case 9:
				s.Free(tid, addr, 256)
			case 10:
				s.ChanSend(tid, event.ChanID(i%4), i%3)
			case 11:
				s.ChanRecv(tid, event.ChanID(i%4), i%3)
			case 12:
				s.ChanAck(tid, event.ChanID(i%4), 0)
			case 13:
				s.WGAdd(tid, event.WGID(1), i%5-2)
			case 14:
				s.WGDone(tid, event.WGID(1))
			case 15:
				s.WGWait(tid, event.WGID(1))
			case 16, 17:
				s.Read(tid, addr, uint32(1<<(i%4)), event.PC(i%11))
			default:
				s.Write(tid, addr, 8, event.PC(i%13))
			}
		}
	}

	var want [][]byte
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		want = append(want, wire.AppendBatchFrame(nil, wire.Header{Seq: uint64(len(want) + 1)}, b))
		event.PutBatch(b)
	}}
	drive(enc)
	enc.Close()

	c := &Client{opts: Options{}.withDefaults(), outbox: make(chan sentFrame, len(want))}
	c.setTarget(0)
	drive(c)
	c.flushBatch()
	close(c.outbox)
	var got [][]byte
	for sf := range c.outbox {
		got = append(got, sf.data)
	}
	if len(got) != len(want) || len(want) < 3 {
		t.Fatalf("client shipped %d frames, the batch encoding %d (want at least 3)", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("frame %d differs from the batch encoding (%d vs %d bytes)", i+1, len(got[i]), len(want[i]))
		}
	}
}
