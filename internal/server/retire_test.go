package server

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/detector"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// TestClosedSessionReleasesPipeline pins that retiring a session keeps
// only its encoded report: while the report is retained for re-delivery,
// the session's pipeline and shard detectors must already be collectable
// (a linger timer that captured the session held them for SessionLinger).
func TestClosedSessionReleasesPipeline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{SessionLinger: time.Minute})
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	cl, err := client.Dial(client.Options{
		Addr:  l.Addr().String(),
		Hello: wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Write(0, 0x1000, 4, 0)
	cl.Write(1, 0x1000, 4, 0)

	collected := make(chan struct{})
	func() { // scoped so no stack slot keeps the pipeline alive
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, sess := range srv.sessions {
			runtime.SetFinalizer(sess.pl, func(*pipeline.Pipeline) { close(collected) })
		}
	}()
	rep, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("report races = %d, want the seeded write-write race", len(rep.Races))
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			srv.mu.Lock()
			retained := len(srv.closed)
			srv.mu.Unlock()
			if retained != 1 {
				t.Fatalf("%d closed reports retained, want 1", retained)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("closed session's pipeline still reachable during the report linger")
		}
	}
}
