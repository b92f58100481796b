package race

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/wire"
)

// A trace file is the byte stream a client sends a racedetectd: one
// CRC-checked Batch frame per event.Encoder batch, numbered from 1, then a
// Close frame carrying the last batch number. The Close frame marks a
// complete recording, so a file cut at a frame boundary is still caught.
// Recording a run once and replaying it under many detectors is the
// RecPlay-style workflow of the paper's related work (Section VI).

// Record runs p under the scheduler seed with the engine's defaults, as
// Baseline does, and writes its event stream to w as a trace file. The
// stream is the one RunE feeds its detector for the same program and
// Seed, so a Replay of the file reports what the live run reports.
func Record(w io.Writer, p Program, seed int64) (RunStats, error) {
	var st RunStats
	_, err := recordTrace(w, func(s event.Sink) { st = sim.Run(p, s, sim.Options{Seed: seed}) })
	return st, err
}

// Replay runs the trace file read from r through the topology opts
// selects: the same validation, observability side-cars, front end,
// detectors and transports as RunE, so a replayed trace yields the report
// of the live run it was recorded from. name labels the report. The
// engine options (Seed, Quantum, MaxEvents, Timeout) do not apply, and
// Report.Run stays zero. A torn, corrupt or incomplete trace fails the
// replay; that error is returned after the detection workers have drained
// or the Remote or Cluster session has closed, so none of them outlives
// the call.
func Replay(name string, r io.Reader, opts Options) (Report, error) {
	return run(name, func(s event.Sink) (RunStats, error) { return RunStats{}, replayTrace(r, s) }, opts)
}

// recordTrace feeds emit's events through an encoder that writes each
// batch to w as a Batch frame, then writes the Close frame. It returns the
// number of events recorded.
func recordTrace(w io.Writer, emit func(event.Sink)) (uint64, error) {
	bw := bufio.NewWriter(w)
	var (
		seq, events uint64
		frame       []byte
		err         error
	)
	enc := event.Encoder{Flush: func(b *event.Batch) {
		seq++
		events += uint64(len(b.Recs))
		if err == nil {
			frame = wire.AppendBatchFrame(frame[:0], wire.Header{Seq: seq}, b)
			_, err = bw.Write(frame)
		}
		event.PutBatch(b)
	}}
	emit(&enc)
	enc.Close()
	if err != nil {
		return events, err
	}
	if _, err := bw.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeClose, Seq: seq}, nil)); err != nil {
		return events, err
	}
	return events, bw.Flush()
}

// replayTrace decodes a trace file's batches in order into sink. It fails
// on a torn, corrupt or out-of-order frame, on a file that ends without
// its Close frame, and on anything after it.
func replayTrace(r io.Reader, sink event.Sink) error {
	rd := wire.NewReader(bufio.NewReader(r), 0)
	cols := event.GetCols()
	defer event.PutCols(cols)
	var seq uint64
	for {
		h, payload, err := rd.ReadFrame()
		switch {
		case err == io.EOF:
			return fmt.Errorf("trace ends after batch %d without its close frame", seq)
		case errors.Is(err, wire.ErrBadMagic) && seq == 0:
			return fmt.Errorf("not a frame-format trace (re-record older traces): %w", err)
		case err != nil:
			return fmt.Errorf("trace frame after batch %d: %w", seq, err)
		}
		switch h.Type {
		case wire.TypeBatch:
			if h.Seq != seq+1 {
				return fmt.Errorf("trace batch %d follows batch %d", h.Seq, seq)
			}
			seq = h.Seq
			cols.Reset()
			if err := wire.DecodeColumnarColsInto(payload, cols); err != nil {
				return fmt.Errorf("trace batch %d: %w", seq, err)
			}
			cols.Apply(sink)
		case wire.TypeClose:
			if h.Seq != seq {
				return fmt.Errorf("trace close frame names batch %d, last batch was %d", h.Seq, seq)
			}
			if _, _, err := rd.ReadFrame(); err != io.EOF {
				return errors.New("trace has data after its close frame")
			}
			return nil
		default:
			return fmt.Errorf("unexpected %v frame in trace", h.Type)
		}
	}
}
