package pipeline

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/vc"
)

// TestCountersPublishDuringRun checks the workers' batched publication
// of detector counters while a reader polls the registry: the accesses
// counter never decreases, advances before Wait (publication is not only
// at run end), and equals the run's Stats().Accesses once Wait returns.
func TestCountersPublishDuringRun(t *testing.T) {
	reg := telemetry.New()
	p := New(Options{
		Workers:   2,
		Detector:  detector.Config{Granularity: detector.Dynamic},
		Telemetry: reg,
	})
	const name = "detector_accesses_total"
	advanced := make(chan struct{})
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var last uint64
		for {
			v := reg.CounterValue(name)
			if v < last {
				polled <- fmt.Errorf("%s went back from %d to %d", name, last, v)
				return
			}
			if last == 0 && v > 0 {
				close(advanced)
			}
			last = v
			select {
			case <-stop:
				polled <- nil
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()

	// 24 full batches per worker: aligned 8-byte accesses in distinct
	// blocks, so no access straddles a shard boundary and every worker
	// counts exactly the accesses the router sent it.
	const perWorker = 24 * event.DefaultBatchSize
	for i := 0; i < 2*perWorker; i++ {
		tid := vc.TID(i / 64 % 4)
		p.Write(tid, 0x100000+uint64(i%8192)*8, 8, event.PC(i%5))
	}
	select {
	case <-advanced:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not advance before Wait", name)
	}
	res := p.Wait()
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(name); got != res.Stats.Accesses || got != 2*perWorker {
		t.Fatalf("%s = %d after Wait, Stats().Accesses = %d, routed %d", name, got, res.Stats.Accesses, 2*perWorker)
	}
}
