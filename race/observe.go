// Run observability: the wiring between race.Options and the telemetry
// layer — a metrics HTTP endpoint served for the duration of a run
// (Options.MetricsAddr), a periodic one-line progress report
// (Options.StatsInterval), and the phase tracer (Options.Tracer). All of
// it is opt-in; a zero Options runs with no telemetry and no overhead
// beyond one nil check per instrumented site.
package race

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/telemetry"
)

// NewTelemetry returns an empty metric registry to pass as
// Options.Telemetry — a convenience so front-ends need not import
// internal/telemetry.
func NewTelemetry() *telemetry.Registry { return telemetry.New() }

// NewTracer returns a phase tracer to pass as Options.Tracer.
func NewTracer() *telemetry.Tracer { return telemetry.NewTracer() }

// observer owns a run's observability side-cars: the metrics listener and
// the progress ticker goroutine. stop is idempotent enough for the single
// deferred call RunE makes.
type observer struct {
	reg *telemetry.Registry
	// streamed marks a Remote or Cluster run: its detectors count into the
	// servers' registries, so the run's own registry holds only what the
	// client sent.
	streamed bool
	ln       net.Listener
	quit     chan struct{}
	done     chan struct{}
}

// startObservability prepares the run's registry and starts the side-cars
// requested by opts. It may upgrade opts.Telemetry from nil to a fresh
// registry when an endpoint or progress report needs one.
func startObservability(opts *Options) (*observer, error) {
	o := &observer{streamed: opts.Remote != "" || len(opts.Cluster) > 0}
	if opts.Telemetry == nil && (opts.MetricsAddr != "" || opts.StatsInterval > 0) {
		opts.Telemetry = telemetry.New()
	}
	o.reg = opts.Telemetry
	if opts.MetricsAddr != "" {
		ln, err := net.Listen("tcp", opts.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("race: metrics endpoint: %w", err)
		}
		o.ln = ln
		srv := &http.Server{Handler: o.reg.Handler()}
		go srv.Serve(ln)
	}
	if opts.StatsInterval > 0 {
		w := opts.StatsWriter
		if w == nil {
			w = os.Stderr
		}
		o.quit = make(chan struct{})
		o.done = make(chan struct{})
		go o.progress(w, opts.StatsInterval)
	}
	return o, nil
}

// progress prints one line per interval with the run's live counters, read
// straight from the registry (the same numbers /metrics serves).
func (o *observer) progress(w io.Writer, interval time.Duration) {
	defer close(o.done)
	start := time.Now()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-o.quit:
			return
		case <-t.C:
			fmt.Fprintln(w, o.progressLine(time.Since(start)))
		}
	}
}

// progressLine renders the one-line progress report. Split out for tests.
// A streamed run reports only the client's counters: the detector counts
// live in the servers.
func (o *observer) progressLine(elapsed time.Duration) string {
	r := o.reg
	line := fmt.Sprintf("progress t=%.1fs", elapsed.Seconds())
	if !o.streamed {
		line += fmt.Sprintf(" accesses=%d same_epoch=%d races=%d",
			r.CounterValue("detector_accesses_total"),
			r.CounterValue("detector_same_epoch_hits_total"),
			r.CounterValue("detector_races_total"))
	}
	if q := r.GaugeValue("pipeline_queue_depth"); q > 0 {
		line += fmt.Sprintf(" queue=%d", int64(q))
	}
	if ev := r.CounterValue("client_events_total"); ev > 0 || o.streamed {
		line += fmt.Sprintf(" streamed=%d batches=%d", ev, r.CounterValue("client_batches_total"))
	}
	return line
}

// stop tears the side-cars down: the progress goroutine is joined and the
// metrics listener closed (the endpoint lives only as long as the run).
func (o *observer) stop() {
	if o.quit != nil {
		close(o.quit)
		<-o.done
	}
	if o.ln != nil {
		o.ln.Close()
	}
}
