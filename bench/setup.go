package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/server"
	"repro/race"
	"repro/workloads"
)

// The readiness probe runs every program of the mix at probeScale and
// probeSeed, where its race counts are the hand-verified ones, through the
// workload's topology.
const (
	probeScale = 1
	probeSeed  = 42
)

// sessionLinger is how long the servers keep a closed session's report for
// re-delivery. A retired session's whole pipeline stays reachable for that
// long through the linger timer, so at the 10 s default peak RSS would
// count the last ~10 s of sessions and swing with pass timing.
const sessionLinger = 50 * time.Millisecond

// env is one workload's set-up state: the built program mix and the
// loopback detection servers the topology streams to.
type env struct {
	names   []string
	progs   []race.Program
	servers []*server.Server
	addrs   []string
	serving sync.WaitGroup // one per Serve goroutine
}

// setUp builds the program mix, starts the workload's servers and probes
// the detection stack until it has run every program once at probeScale.
// It returns why any probe reported the wrong races; a probe that cannot
// run at all is a set-up error.
func setUp(w Workload, scale int) (*env, []string, error) {
	e := &env{names: w.Programs}
	var probes []race.Program
	for _, name := range w.Programs {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		e.progs = append(e.progs, spec.Build(scale))
		probes = append(probes, spec.Build(probeScale))
	}
	for i := 0; i < w.Topology.Servers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, nil, fmt.Errorf("bench: listen for server %d: %w", i, err)
		}
		s := server.New(server.Options{SessionLinger: sessionLinger})
		e.servers = append(e.servers, s)
		e.addrs = append(e.addrs, l.Addr().String())
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			_ = s.Serve(l) // returns ErrServerClosed once close shuts it down
		}()
	}
	var failures []string
	for i, p := range probes {
		rep, err := race.RunE(p, w.options(probeSeed, e.addrs))
		if err != nil {
			e.close()
			return nil, nil, fmt.Errorf("bench: readiness probe %s: %w", e.names[i], err)
		}
		if w.Exact() {
			if msg := checkExpected(e.names[i], len(rep.Races)); msg != "" {
				failures = append(failures, msg)
			}
		}
	}
	return e, failures, nil
}

// close shuts the servers down and waits for their accept loops to end.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range e.servers {
		_ = s.Shutdown(ctx) // a forced close still stops the server
	}
	e.serving.Wait()
}

// framesRejected sums the frames every server refused so far.
func (e *env) framesRejected() uint64 {
	var n uint64
	for _, s := range e.servers {
		n += s.Registry().CounterValue("racedetectd_frames_rejected_total")
	}
	return n
}
