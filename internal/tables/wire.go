package tables

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/internal/wire"
	"repro/race"
)

// DefaultWireBatchSizes is the batch-size sweep of the encode/decode
// micro-bench: a small batch (framing overhead dominates), the encoder's
// default, and a large batch (payload throughput dominates).
var DefaultWireBatchSizes = []int{64, event.DefaultBatchSize, 8192}

// WireCodecRow is one batch-size cell of the encode/decode micro-bench:
// how fast a batch can be framed and how fast a frame can be decoded back
// into a pooled columnar batch, with no network or detector in the path.
type WireCodecRow struct {
	BatchRecs     int     `json:"batch_recs"`
	FrameBytes    int     `json:"frame_bytes"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	// VsFixedWidth is the frame size relative to the same batch framed at
	// fixed width (HeaderSize + records × wire.RecSize) — the compression
	// factor the columnar encoding buys.
	VsFixedWidth float64 `json:"vs_fixed_width"`
	// EncodeEventsPerSec / DecodeEventsPerSec are record throughputs of
	// AppendBatchFrame and DecodeColumnarCols respectively.
	EncodeEventsPerSec float64 `json:"encode_events_per_sec"`
	DecodeEventsPerSec float64 `json:"decode_events_per_sec"`
	EncodeMBPerSec     float64 `json:"encode_mb_per_sec"`
	DecodeMBPerSec     float64 `json:"decode_mb_per_sec"`
}

// wireBenchRecs builds a deterministic batch of n records shaped like a
// real instrumented execution rather than white noise: threads run in
// scheduling bursts (runs of equal tids), each burst walks one buffer
// with a small fixed stride from a hot loop PC, and sequence numbers
// increase monotonically. This is the locality of the PARSEC-style
// workloads (pipeline stages scanning media buffers) and the structure
// the columnar delta-varint codec is designed around; a uniform-random
// stream would measure the codec's worst case, which no instrumented
// program produces.
func wireBenchRecs(n int, seed int64) []event.Rec {
	rng := rand.New(rand.NewSource(seed))
	const threads = 8
	type cursor struct {
		addr   uint64
		pc     event.PC
		stride uint64
		size   uint32
	}
	cur := make([]cursor, threads)
	for t := range cur {
		cur[t] = cursor{
			addr:   0x10000 + uint64(t)<<20,
			pc:     event.PC(0x400000 + rng.Intn(64)*4),
			stride: 4,
			size:   4,
		}
	}
	recs := make([]event.Rec, n)
	tid, left := 0, 0
	for i := range recs {
		if left == 0 {
			// New scheduling burst: another thread runs for a while.
			tid = rng.Intn(threads)
			left = 16 + rng.Intn(48)
			if rng.Intn(4) == 0 {
				// The thread entered a new loop: fresh buffer, fresh
				// hot PC, possibly a different element width.
				c := &cur[tid]
				c.addr = 0x10000 + uint64(rng.Intn(1<<12))<<8
				c.pc = event.PC(0x400000 + rng.Intn(64)*4)
				if rng.Intn(2) == 0 {
					c.stride, c.size = 8, 8
				} else {
					c.stride, c.size = 4, 4
				}
			}
		}
		left--
		c := &cur[tid]
		op := event.OpRead
		if i%3 == 0 {
			op = event.OpWrite
		}
		recs[i] = event.Rec{
			Op: op, Tid: vc.TID(tid), Addr: c.addr,
			Size: c.size, PC: c.pc, Seq: uint64(i),
		}
		c.addr += c.stride
	}
	return recs
}

// WireCodecBench measures frame encode and decode throughput for each
// batch size, without touching the network.
func WireCodecBench(batchSizes []int) []WireCodecRow {
	if len(batchSizes) == 0 {
		batchSizes = DefaultWireBatchSizes
	}
	const target = 50 * time.Millisecond
	rows := make([]WireCodecRow, 0, len(batchSizes))
	for _, n := range batchSizes {
		b := &event.Batch{Recs: wireBenchRecs(n, int64(n))}
		h := wire.Header{Session: 1}
		frame := wire.AppendBatchFrame(nil, h, b)

		// Encode: reuse the buffer, as the client's flush path does.
		buf := frame[:0]
		iters, elapsed := 0, time.Duration(0)
		for start := time.Now(); elapsed < target; elapsed = time.Since(start) {
			buf = wire.AppendBatchFrame(buf[:0], h, b)
			iters++
		}
		encEPS := float64(iters) * float64(n) / elapsed.Seconds()

		// Decode: into a pooled columnar batch, as the server's ingest
		// path does.
		payload := frame[wire.HeaderSize:]
		iters, elapsed = 0, 0
		for start := time.Now(); elapsed < target; elapsed = time.Since(start) {
			got, err := wire.DecodeColumnarCols(payload)
			if err != nil {
				panic(err)
			}
			event.PutCols(got)
			iters++
		}
		decEPS := float64(iters) * float64(n) / elapsed.Seconds()

		perEvent := float64(len(frame)) / float64(n)
		rows = append(rows, WireCodecRow{
			BatchRecs:          n,
			FrameBytes:         len(frame),
			BytesPerEvent:      perEvent,
			VsFixedWidth:       float64(len(frame)) / float64(wire.HeaderSize+n*wire.RecSize),
			EncodeEventsPerSec: encEPS,
			DecodeEventsPerSec: decEPS,
			EncodeMBPerSec:     encEPS * perEvent / (1 << 20),
			DecodeMBPerSec:     decEPS * perEvent / (1 << 20),
		})
	}
	return rows
}

// RemoteRow compares one benchmark run in-process against the same run
// streamed to a loopback racedetectd: the Overhead column is the cost of
// the wire protocol plus a process-boundary detector (lower bound, since
// loopback has no real network latency), and WireBytesPerEvent is the
// measured payload cost on the workload's real event stream.
type RemoteRow struct {
	Program       string  `json:"program"`
	LocalSeconds  float64 `json:"local_seconds"`
	RemoteSeconds float64 `json:"remote_seconds"`
	// Overhead is RemoteSeconds / LocalSeconds for the same seed and
	// granularity (local runs the serial detector).
	Overhead     float64 `json:"overhead"`
	EventsPerSec float64 `json:"events_per_sec"`
	Batches      uint64  `json:"batches"`
	// WireBytesPerEvent is batch payload bytes on the wire divided by
	// records streamed.
	WireBytesPerEvent float64 `json:"wire_bytes_per_event"`
	Races             int     `json:"races"`
}

// RemoteBench runs the runner's benchmarks at dynamic granularity through
// a loopback detection server — plus the in-process reference — and
// reports the remote overhead and on-wire cost. The
// loopback server lives for the duration of the sweep.
func (r *Runner) RemoteBench() ([]RemoteRow, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()
	addr := l.Addr().String()

	var rows []RemoteRow
	for _, s := range r.specs {
		local := r.Report(s, race.Options{Granularity: race.Dynamic})
		prog := s.Build(r.cfg.Scale)
		var (
			remote race.Report
			reg    *telemetry.Registry
		)
		times := make([]time.Duration, 0, r.cfg.TimingRuns)
		for i := 0; i < r.cfg.TimingRuns; i++ {
			runtime.GC()
			reg = telemetry.New()
			remote, err = race.RunE(prog, race.Options{
				Granularity: race.Dynamic, Seed: r.cfg.Seed,
				Workers: 2, Remote: addr, Telemetry: reg,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: remote run: %w", s.Name, err)
			}
			times = append(times, remote.Elapsed)
		}
		row := RemoteRow{
			Program:      s.Name,
			LocalSeconds: local.Elapsed.Seconds(),
			Batches:      reg.CounterValue("client_batches_total"),
			Races:        len(remote.Races),
		}
		row.RemoteSeconds = bestDuration(times).Seconds()
		if row.LocalSeconds > 0 {
			row.Overhead = row.RemoteSeconds / row.LocalSeconds
		}
		if row.RemoteSeconds > 0 {
			row.EventsPerSec = float64(remote.Run.Events) / row.RemoteSeconds
		}
		if events := reg.CounterValue("client_events_total"); events > 0 {
			row.WireBytesPerEvent =
				float64(reg.CounterValue("wire_payload_bytes_total")) / float64(events)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WireBenchJSON is the machine-readable BENCH_wire.json document: the
// codec micro-bench plus the loopback remote-overhead sweep.
type WireBenchJSON struct {
	Config struct {
		Scale      int   `json:"scale"`
		Seed       int64 `json:"seed"`
		GOMAXPROCS int   `json:"gomaxprocs"`
		RecBytes   int   `json:"rec_bytes"`
		HeaderSize int   `json:"header_size"`
	} `json:"config"`
	Codec  []WireCodecRow `json:"codec"`
	Remote []RemoteRow    `json:"remote"`
}

// WriteWireJSON runs both wire benches and writes BENCH_wire.json.
func (r *Runner) WriteWireJSON(w io.Writer, batchSizes []int) error {
	var out WireBenchJSON
	out.Config.Scale = r.cfg.Scale
	out.Config.Seed = r.cfg.Seed
	out.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	out.Config.RecBytes = wire.RecSize
	out.Config.HeaderSize = wire.HeaderSize
	out.Codec = WireCodecBench(batchSizes)
	rows, err := r.RemoteBench()
	if err != nil {
		return err
	}
	out.Remote = rows
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
