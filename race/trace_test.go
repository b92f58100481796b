package race

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/vc"
	"repro/internal/wire"
	"repro/workloads"
)

// collector records a comparable rendering of every event, Go-native
// synchronization included.
type collector struct{ out []string }

func (c *collector) add(f string, a ...any) { c.out = append(c.out, fmt.Sprintf(f, a...)) }

func (c *collector) Read(t vc.TID, a uint64, s uint32, p event.PC) {
	c.add("r %d %x %d %d", t, a, s, p)
}
func (c *collector) Write(t vc.TID, a uint64, s uint32, p event.PC) {
	c.add("w %d %x %d %d", t, a, s, p)
}
func (c *collector) Acquire(t vc.TID, l event.LockID)          { c.add("a %d %d", t, l) }
func (c *collector) Release(t vc.TID, l event.LockID)          { c.add("rl %d %d", t, l) }
func (c *collector) AcquireShared(t vc.TID, l event.LockID)    { c.add("as %d %d", t, l) }
func (c *collector) ReleaseShared(t vc.TID, l event.LockID)    { c.add("rs %d %d", t, l) }
func (c *collector) Fork(p, ch vc.TID)                         { c.add("f %d %d", p, ch) }
func (c *collector) Join(p, ch vc.TID)                         { c.add("j %d %d", p, ch) }
func (c *collector) BarrierArrive(t vc.TID, b event.BarrierID) { c.add("ba %d %d", t, b) }
func (c *collector) BarrierDepart(t vc.TID, b event.BarrierID) { c.add("bd %d %d", t, b) }
func (c *collector) Malloc(t vc.TID, a, s uint64)              { c.add("m %d %x %d", t, a, s) }
func (c *collector) Free(t vc.TID, a, s uint64)                { c.add("fr %d %x %d", t, a, s) }
func (c *collector) ChanSend(t vc.TID, ch event.ChanID, n int) { c.add("cs %d %d %d", t, ch, n) }
func (c *collector) ChanRecv(t vc.TID, ch event.ChanID, n int) { c.add("cr %d %d %d", t, ch, n) }
func (c *collector) ChanAck(t vc.TID, ch event.ChanID, n int)  { c.add("ca %d %d %d", t, ch, n) }
func (c *collector) WGAdd(t vc.TID, wg event.WGID, d int)      { c.add("wa %d %d %d", t, wg, d) }
func (c *collector) WGDone(t vc.TID, wg event.WGID)            { c.add("wd %d %d", t, wg) }
func (c *collector) WGWait(t vc.TID, wg event.WGID)            { c.add("ww %d %d", t, wg) }

// record returns the trace file of emit's events.
func record(t *testing.T, emit func(event.Sink)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := recordTrace(&buf, emit); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordRun returns the trace file Record writes for p at seed 42, the
// seed the live runs below use.
func recordRun(t *testing.T, p Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Record(&buf, p, 42); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundtripAllEventKinds replays every event kind, Go-native channel
// and WaitGroup operations included, exactly as it was recorded.
func TestRoundtripAllEventKinds(t *testing.T) {
	emit := func(s event.Sink) {
		g := s.(event.GoSink)
		s.Write(0, 0x1000, 8, event.MakePC(event.ModuleApp, 3))
		s.Read(1, 0x1008, 4, event.MakePC(event.ModuleLibc, 9))
		s.Read(1, 0x10, 2, 0) // negative address delta
		s.Acquire(0, 5)
		s.Release(0, 5)
		s.AcquireShared(1, 5)
		s.ReleaseShared(1, 5)
		s.Fork(0, 2)
		s.Join(0, 2)
		s.BarrierArrive(1, 7)
		s.BarrierDepart(1, 7)
		s.Malloc(2, 0x2000, 64)
		s.Free(2, 0x2000, 64)
		g.ChanSend(1, 4, 0)
		g.ChanRecv(2, 4, 0)
		g.ChanAck(1, 4, 0)
		g.WGAdd(0, 3, 2)
		g.WGDone(1, 3)
		g.WGWait(0, 3)
	}
	var buf bytes.Buffer
	n, err := recordTrace(&buf, emit)
	if err != nil {
		t.Fatal(err)
	}
	want := &collector{}
	emit(want)
	if n != uint64(len(want.out)) {
		t.Fatalf("recorded %d events, emitted %d", n, len(want.out))
	}
	got := &collector{}
	if err := replayTrace(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.out, want.out) {
		t.Fatalf("replayed stream differs:\ngot  %q\nwant %q", got.out, want.out)
	}
}

// TestRecorderEventCount checks recordTrace's event count across batch
// boundaries, and that the file holds one Batch frame per encoder batch
// followed by the Close frame.
func TestRecorderEventCount(t *testing.T) {
	const n = 2*event.DefaultBatchSize + 3
	var buf bytes.Buffer
	got, err := recordTrace(&buf, func(s event.Sink) {
		for i := 0; i < n; i++ {
			s.Write(0, uint64(8*i), 8, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("recorded %d events, want %d", got, n)
	}
	var types []wire.Type
	rd := wire.NewReader(&buf, 0)
	for {
		h, _, err := rd.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, h.Type)
	}
	want := []wire.Type{wire.TypeBatch, wire.TypeBatch, wire.TypeBatch, wire.TypeClose}
	if !reflect.DeepEqual(types, want) {
		t.Errorf("frames %v, want %v", types, want)
	}
}

// topology is one detection topology a replay runs through.
type topology struct {
	name string
	opts Options
}

// topologies returns the serial detector, the sharded pipeline, a
// loopback racedetectd and a two-member loopback cluster.
func topologies(t *testing.T) []topology {
	addrs := []string{startDetectd(t, server.Options{}), startDetectd(t, server.Options{}), startDetectd(t, server.Options{})}
	return []topology{
		{"serial", Options{}},
		{"workers=2", Options{Workers: 2}},
		{"remote", Options{Remote: addrs[0]}},
		{"cluster", Options{Cluster: addrs[1:]}},
	}
}

// TestReplayedAnalysisMatchesLive pins the offline-analysis workflow: a
// trace written by Record and replayed through Replay reports exactly the
// races and analyzed accesses RunE reports on the live run with the same
// options. The table covers every workload at every granularity on the
// serial detector, and fanin (channels and WaitGroups) and x264 (locks)
// at dynamic granularity on every other topology.
func TestReplayedAnalysisMatchesLive(t *testing.T) {
	type cell struct {
		spec workloads.Spec
		opts Options
		name string
	}
	specs, grans := workloads.All(), []Granularity{Byte, Word, Dynamic}
	if raceDetectorOn {
		// As in TestClusterEquivalence: a trimmed serial matrix under the
		// race detector, the full 14×3 one in the uninstrumented pass. The
		// topology cells below, which drive the concurrent paths, all run.
		specs, grans = specs[:4], []Granularity{Dynamic}
	}
	var cells []cell
	for _, spec := range specs {
		for _, g := range grans {
			cells = append(cells, cell{spec, Options{Granularity: g}, "serial/" + g.String()})
		}
	}
	tops := topologies(t)
	for _, name := range []string{"fanin", "x264"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, top := range tops[1:] {
			opts := top.opts
			opts.Granularity = Dynamic
			cells = append(cells, cell{spec, opts, top.name})
		}
	}
	traces := map[string][]byte{}
	for _, c := range cells {
		data, ok := traces[c.spec.Name]
		if !ok {
			data = recordRun(t, c.spec.Program())
			traces[c.spec.Name] = data
		}
		name := c.spec.Name + "/" + c.name
		live := c.opts
		live.Seed = 42
		want, err := RunE(c.spec.Program(), live)
		if err != nil {
			t.Fatalf("%s: live run: %v", name, err)
		}
		got, err := Replay(c.spec.Name, bytes.NewReader(data), c.opts)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if !reflect.DeepEqual(got.Races, want.Races) {
			t.Errorf("%s: replay reports %d races, live %d:\nreplay %v\nlive   %v",
				name, len(got.Races), len(want.Races), got.Races, want.Races)
		}
		if got.Detector.Accesses != want.Detector.Accesses {
			t.Errorf("%s: replay analyzed %d accesses, live %d", name, got.Detector.Accesses, want.Detector.Accesses)
		}
	}
}

// TestReplayKeepsGoSyncStructured pins replay fidelity for Go-native
// synchronization: on the channel and WaitGroup workloads the replayed
// event stream equals the live one op for op, so channel and WaitGroup
// operations reach the detector as themselves, not as the synthetic locks
// a sink without event.GoSink receives.
func TestReplayKeepsGoSyncStructured(t *testing.T) {
	for _, name := range []string{"fanin", "pipedag", "workerpool"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var live, replayed collector
		sim.Run(spec.Program(), &live, sim.Options{Seed: 42})
		data := recordRun(t, spec.Program())
		if err := replayTrace(bytes.NewReader(data), &replayed); err != nil {
			t.Fatal(err)
		}
		goSync := 0
		for _, ev := range live.out {
			switch op, _, _ := strings.Cut(ev, " "); op {
			case "cs", "cr", "ca", "wd", "ww":
				goSync++
			}
		}
		if goSync == 0 {
			t.Fatalf("%s: live run emitted no channel or WaitGroup ops", name)
		}
		if !reflect.DeepEqual(replayed.out, live.out) {
			n := min(len(replayed.out), len(live.out))
			k := 0
			for k < n && replayed.out[k] == live.out[k] {
				k++
			}
			t.Errorf("%s: replay has %d events, live %d; first difference at event %d", name, len(replayed.out), len(live.out), k)
		}
	}
}

// TestReplayTruncatedFails checks that damaged or foreign files are
// refused instead of replaying a partial stream: replayTrace fails, and
// Replay returns that same error on every topology, having drained
// its workers or closed its sessions, so no goroutine outlives it.
func TestReplayTruncatedFails(t *testing.T) {
	data := record(t, func(s event.Sink) {
		for i := 0; i < 3*event.DefaultBatchSize; i++ {
			s.Write(vc.TID(i%2), uint64(0x1000+8*(i%64)), 8, 1)
		}
	})
	closeFrame := wire.HeaderSize // the Close frame has no payload
	cases := map[string][]byte{
		"cut at frame boundary": data[:len(data)-closeFrame],
		"cut mid-frame":         data[:len(data)/2],
		"flipped payload byte": func() []byte {
			bad := append([]byte(nil), data...)
			bad[wire.HeaderSize+10] ^= 0x40
			return bad
		}(),
		"trailing data": append(append([]byte(nil), data...), data[:wire.HeaderSize]...),
		// Opcode/varint records (write tid 0 addr +0x1000 size 1 pc 0, …).
		"older opcode format": bytes.Repeat([]byte{0x02, 0x00, 0x80, 0x40, 0x01, 0x00}, 16),
	}
	tops := topologies(t) // servers up before the goroutine baseline
	base := runtime.NumGoroutine()
	for name, bad := range cases {
		want := replayTrace(bytes.NewReader(bad), &collector{})
		if want == nil {
			t.Errorf("%s: replay accepted a damaged trace", name)
			continue
		}
		for _, top := range tops {
			_, err := Replay(name, bytes.NewReader(bad), top.opts)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s/%s: Replay returned %v, want %v", name, top.name, err, want)
			}
		}
	}
	if err := replayTrace(bytes.NewReader(cases["older opcode format"]), &collector{}); !strings.Contains(err.Error(), "magic") {
		t.Errorf("older trace format: %v, want a frame-magic error", err)
	}
	if err := replayTrace(bytes.NewReader(data), &collector{}); err != nil {
		t.Fatalf("intact trace: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the replays, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompactness bounds the file cost of a sequential sweep: the
// columnar encoding's delta-coded address column keeps it to a few bytes
// per access, frame headers and the close marker included.
func TestCompactness(t *testing.T) {
	data := record(t, func(s event.Sink) {
		for i := 0; i < 1000; i++ {
			s.Write(0, 0x1000+uint64(i)*4, 4, 1)
		}
	})
	if perEvent := float64(len(data)) / 1000; perEvent > 6 {
		t.Errorf("sequential sweep costs %.1f bytes/event", perEvent)
	}
}
