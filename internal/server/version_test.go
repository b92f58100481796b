package server_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/workloads"
)

// handshake dials addr, sends hello (a wire.Hello, or a json.RawMessage
// for a Hello the current type cannot express), and returns the
// connection, a frame reader on it, and the decoded HelloAck. The
// connection is closed at test cleanup.
func handshake(t *testing.T, addr string, hello any) (net.Conn, *wire.Reader, wire.HelloAck) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	payload, err := wire.MarshalControl(hello)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, payload)); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn, 0)
	h, body, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != wire.TypeHelloAck {
		t.Fatalf("handshake reply %v (%s)", h.Type, body)
	}
	var ack wire.HelloAck
	if err := wire.UnmarshalControl(body, &ack); err != nil {
		t.Fatal(err)
	}
	return conn, rd, ack
}

// TestOldClientNewServer emulates a pre-version-2 client byte for byte:
// its Hello says version 1 and its batches would be packed 37-byte
// records. The server must refuse it at the handshake with the typed
// bad-version error — before any batch it could misdecode.
func TestOldClientNewServer(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello},
		[]byte(`{"version":1,"granularity":2,"workers":1,"window":32}`))); err != nil {
		t.Fatal(err)
	}
	h, body, err := wire.NewReader(conn, 0).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	var ep wire.ErrorPayload
	if h.Type != wire.TypeError || wire.UnmarshalControl(body, &ep) != nil || ep.Code != wire.CodeBadVersion {
		t.Fatalf("version-1 hello answered with %v %s, want a %s error", h.Type, body, wire.CodeBadVersion)
	}
}

// TestNewClientOldServer dials a current client into a stand-in for a
// version-1 server, which answers every Hello the way that build did
// (bad-version, "want 1"). The client must give up at once with the typed
// error instead of retrying a handshake that can never succeed.
func TestNewClientOldServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan int, 1)
	go func() {
		n := 0
		defer func() { accepted <- n }()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			n++
			if _, _, err := wire.NewReader(conn, 0).ReadFrame(); err == nil {
				frame, _ := wire.AppendControlFrame(nil, wire.Header{Type: wire.TypeError},
					wire.ErrorPayload{Code: wire.CodeBadVersion, Message: "protocol version 2, want 1"})
				conn.Write(frame)
			}
			conn.Close()
		}
	}()
	_, err = client.Dial(client.Options{
		Addr:        l.Addr().String(),
		Hello:       wire.Hello{Granularity: uint8(detector.Dynamic)},
		BackoffBase: time.Second, // a retry would show in test time
	})
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBadVersion {
		t.Fatalf("dial against a version-1 server: %v, want a %s RemoteError", err, wire.CodeBadVersion)
	}
	l.Close()
	if n := <-accepted; n != 1 {
		t.Fatalf("client dialed %d times, want 1 (bad-version is permanent)", n)
	}
}

// TestResumeAfterDrop pins the raw-protocol resume path: a client that
// vanishes mid-stream re-attaches to its lingering session (after a busy
// refusal while the server still holds the old connection), learns the
// last applied batch, and closes with the full report.
func TestResumeAfterDrop(t *testing.T) {
	srv, addr := startServer(t, server.Options{SessionLinger: 5 * time.Second})
	conn, _, ack := handshake(t, addr, wire.Hello{
		Version: wire.Version, Granularity: uint8(detector.Dynamic), Workers: 1,
	})
	b := &event.Batch{}
	b.Append(event.Rec{Op: event.OpWrite, Tid: 0, Addr: 0x3000, Size: 4, Seq: 1})
	b.Append(event.Rec{Op: event.OpWrite, Tid: 1, Addr: 0x3000, Size: 4, Seq: 2})
	if _, err := conn.Write(wire.AppendBatchFrame(nil,
		wire.Header{Session: ack.SessionID, Seq: 1}, b)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch to be applied", 5*time.Second, func() bool {
		return srv.Metrics().EventsTotal >= 2
	})
	conn.Close() // vanish mid-stream; the session lingers

	// A resume that races the old connection's teardown is refused with the
	// retryable busy code, exactly as a reconnecting client would see.
	var (
		conn2 net.Conn
		rd2   *wire.Reader
		rack  wire.HelloAck
	)
	resume := wire.Hello{
		Version: wire.Version, Resume: ack.SessionID,
		Granularity: uint8(detector.Dynamic), Workers: 1,
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := wire.MarshalControl(resume)
		if _, err := c.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, payload)); err != nil {
			t.Fatal(err)
		}
		rd := wire.NewReader(c, 0)
		h, body, err := rd.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if h.Type == wire.TypeError {
			var ep wire.ErrorPayload
			if err := wire.UnmarshalControl(body, &ep); err != nil {
				t.Fatal(err)
			}
			c.Close()
			if ep.Code != wire.CodeBusy || time.Now().After(deadline) {
				t.Fatalf("resume refused: %+v", ep)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if h.Type != wire.TypeHelloAck {
			t.Fatalf("resume reply %v", h.Type)
		}
		if err := wire.UnmarshalControl(body, &rack); err != nil {
			t.Fatal(err)
		}
		conn2, rd2 = c, rd
		t.Cleanup(func() { c.Close() })
		break
	}
	if rack.SessionID != ack.SessionID {
		t.Fatalf("resume ack %+v, want session %d", rack, ack.SessionID)
	}
	if rack.ResumeSeq != 1 {
		t.Fatalf("resume seq %d, want 1", rack.ResumeSeq)
	}
	if _, err := conn2.Write(wire.AppendFrame(nil,
		wire.Header{Type: wire.TypeClose, Session: ack.SessionID, Seq: 1}, nil)); err != nil {
		t.Fatal(err)
	}
	for {
		h, payload, err := rd2.ReadFrame()
		if err != nil {
			t.Fatalf("reading report: %v", err)
		}
		if h.Type == wire.TypeReport {
			var rep wire.Report
			if err := wire.UnmarshalControl(payload, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Events != 2 || len(rep.Races) != 1 {
				t.Fatalf("resumed session report: events=%d races=%v", rep.Events, rep.Races)
			}
			return
		}
	}
}

// TestHelloIgnoresLegacyClockField pins compatibility with clients built
// while Hello still selected a thread-clock representation: a Hello whose
// JSON carries "clock":1 opens a session, and that session reports the
// same races for a channel workload as one whose Hello lacks the field.
func TestHelloIgnoresLegacyClockField(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	spec, err := workloads.ByName("fanin")
	if err != nil {
		t.Fatal(err)
	}
	var batches []*event.Batch
	enc := &event.Encoder{Flush: func(b *event.Batch) { batches = append(batches, b) }}
	sim.Run(spec.Program(), enc, sim.Options{Seed: 42})
	enc.Close()

	races := func(hello string) []wire.ReportRace {
		conn, rd, ack := handshake(t, addr, json.RawMessage(hello))
		var frames []byte
		for i, b := range batches {
			frames = wire.AppendBatchFrame(frames, wire.Header{Session: ack.SessionID, Seq: uint64(i + 1)}, b)
		}
		frames = wire.AppendFrame(frames, wire.Header{
			Type: wire.TypeClose, Session: ack.SessionID, Seq: uint64(len(batches)),
		}, nil)
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		for {
			h, payload, err := rd.ReadFrame()
			if err != nil {
				t.Fatalf("reading report: %v", err)
			}
			if h.Type == wire.TypeReport {
				var rep wire.Report
				if err := wire.UnmarshalControl(payload, &rep); err != nil {
					t.Fatal(err)
				}
				return rep.Races
			}
		}
	}
	base := fmt.Sprintf(`{"version":%d,"granularity":%d,"workers":1,"window":64`, wire.Version, detector.Dynamic)
	want := races(base + `}`)
	got := races(base + `,"clock":1}`)
	if len(want) == 0 {
		t.Fatal("fanin reported no races; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Hello with \"clock\":1 reports %d races, without it %d:\n%v\n%v", len(got), len(want), got, want)
	}
}
