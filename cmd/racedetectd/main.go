// Command racedetectd is the remote detection service: a long-lived TCP
// server that accepts wire-protocol event streams from instrumented
// producers (race.Options.Remote, racedetect -remote, tracereplay
// -remote), runs one sharded detection pipeline per session, and returns
// each session's race report when the producer closes its stream.
//
// An HTTP sidecar exposes /healthz, /metrics (Prometheus text format:
// sessions, batches, events, queue depth, races found, plus every live
// session's session-labeled pipeline and detector series), /sessions (JSON
// introspection of live sessions), and /debug/vars (expvar-style JSON).
//
// Usage:
//
//	racedetectd                              # listen on :7474, sidecar on :7475
//	racedetectd -listen :9000 -http :9001
//	racedetectd -max-sessions 128 -workers-per-session 8 -read-timeout 1m
//	racedetectd -http ""                     # disable the sidecar
//
// SIGINT/SIGTERM drain gracefully: the listener closes, live sessions are
// given -drain-timeout to finish, then connections are force-closed (and
// their pipelines reclaimed) before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", ":7474", "TCP address for the wire protocol")
		httpAddr    = flag.String("http", ":7475", `HTTP sidecar address for /healthz and /metrics ("" disables)`)
		maxSessions = flag.Int("max-sessions", 64, "maximum concurrently open sessions")
		maxFrameKB  = flag.Int("max-frame-kb", 1024, "maximum frame payload in KiB")
		readTimeout = flag.Duration("read-timeout", 30*time.Second, "per-frame read deadline")
		window      = flag.Int("window", 64, "maximum granted in-flight batch window per session")
		workersPer  = flag.Int("workers-per-session", 4, "detection shard cap per session")
		linger      = flag.Duration("session-linger", 10*time.Second, "how long a disconnected session stays resumable")
		drainT      = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		quiet       = flag.Bool("q", false, "suppress per-session log lines")
		logFormat   = flag.String("log-format", "text", "structured log output: text | json")
		traceSample = flag.Float64("trace-sample", 1,
			"distributed-tracing grant: 0 refuses every session's Hello.Trace (clients pick the actual sampling rate)")
		provGrant = flag.Bool("provenance", true,
			"grant race-provenance flight recorders to sessions that request them (-provenance=false refuses)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "racedetectd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	opts := server.Options{
		MaxSessions:   *maxSessions,
		MaxFrameBytes: uint32(*maxFrameKB) << 10,
		ReadTimeout:   *readTimeout,
		Window:        *window,
		MaxWorkers:    *workersPer,
		SessionLinger: *linger,
		NoTrace:       *traceSample <= 0,
		NoProvenance:  !*provGrant,
	}
	if !*quiet {
		opts.Logger = logger
	}
	srv := server.New(opts)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen failed", "addr", *listen, "err", err)
	}
	// One structured startup record: everything an operator needs to know
	// about this instance's configuration.
	logger.Info("start",
		"listen", l.Addr().String(), "http", *httpAddr,
		"version", telemetry.BuildVersion(), "go", runtime.Version(), "pid", os.Getpid(),
		"max_sessions", *maxSessions, "workers_per_session", *workersPer,
		"max_frame_kb", *maxFrameKB, "window", *window,
		"read_timeout", *readTimeout, "session_linger", *linger, "drain_timeout", *drainT,
		"trace", !opts.NoTrace, "provenance", !opts.NoProvenance)

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = &http.Server{Addr: *httpAddr, Handler: srv.HTTPHandler()}
		go func() {
			logger.Info("sidecar up", "addr", *httpAddr,
				"endpoints", "/healthz /metrics /sessions /debug/vars /debug/provenance /debug/spans")
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Warn("sidecar failed", "err", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "budget", *drainT)
	case err := <-serveErr:
		if err != nil && err != server.ErrServerClosed {
			fatal("serve failed", "err", err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	if httpSrv != nil {
		httpSrv.Shutdown(context.Background())
	}
	if drainErr != nil {
		logger.Error("forced close after drain budget", "err", drainErr)
		fmt.Fprintln(os.Stderr, "racedetectd: unclean drain")
		os.Exit(1)
	}
	logger.Info("clean drain, bye")
}
