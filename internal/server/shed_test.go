package server

import (
	"testing"

	"repro/internal/event"
	"repro/internal/pipeline"
)

// shedSession builds a minimal session around a real (idle) pipeline so
// shedRecords can read its occupancy.
func shedSession(t *testing.T) *session {
	t.Helper()
	pl := pipeline.New(pipeline.Options{Workers: 1})
	t.Cleanup(func() { pl.Wait() })
	return &session{pl: pl}
}

// Sync and heap records must survive shedding unconditionally: dropping a
// happens-before edge would corrupt every clock downstream and let the
// detector invent races. Only hot-site read/write records are sheddable.
func TestShedNeverDropsSync(t *testing.T) {
	// Negative watermarks force the latch on (occupancy 0 >= -2) and keep
	// it on (0 < -1 is false), isolating the compaction logic.
	srv := &Server{opts: Options{ShedHighWater: -2, ShedLowWater: -1, ShedHotSite: 2}}
	sess := shedSession(t)
	b := &event.Cols{}
	syncOps := []event.Op{
		event.OpAcquire, event.OpRelease, event.OpFork, event.OpJoin,
		event.OpBarrierArrive, event.OpMalloc, event.OpFree,
		event.OpChanSend, event.OpChanRecv, event.OpWGAdd, event.OpWGWait,
	}
	for i := 0; i < 10; i++ {
		b.Append(event.Rec{Op: event.OpWrite, PC: 7, Addr: uint64(i)})
		b.Append(event.Rec{Op: syncOps[i%len(syncOps)], Aux: 1})
	}
	shed := srv.shedRecords(sess, b)
	if shed != 8 {
		t.Fatalf("shed %d records, want 8 (site 7 keeps its first 2 accesses)", shed)
	}
	// Compaction moves whole records: survivors keep every column and
	// their stream order.
	syncKept, accKept := 0, 0
	for i := 0; i < b.Len(); i++ {
		r := b.Rec(i)
		if r.Op == event.OpRead || r.Op == event.OpWrite {
			if r.PC != 7 || r.Addr != uint64(accKept) {
				t.Errorf("kept access %d = %+v, want PC 7 addr %d", accKept, r, accKept)
			}
			accKept++
		} else {
			if r.Op != syncOps[syncKept%len(syncOps)] || r.Aux != 1 {
				t.Errorf("kept sync record %d = %+v, want op %v aux 1", syncKept, r, syncOps[syncKept%len(syncOps)])
			}
			syncKept++
		}
	}
	if syncKept != 10 {
		t.Errorf("sync records shed: %d/10 survived", syncKept)
	}
	if accKept != 2 {
		t.Errorf("kept %d accesses at the hot site, want ShedHotSite = 2", accKept)
	}
	if sess.shed != 0 {
		t.Errorf("shedRecords must not touch sess.shed (dispatch tallies it): %d", sess.shed)
	}
}

// Below the high watermark nothing is shed, however hot the sites: the
// shedder is a pressure valve, not a sampler.
func TestShedIdleQueuesDropNothing(t *testing.T) {
	srv := &Server{opts: Options{ShedHighWater: 0.5, ShedLowWater: 0.25, ShedHotSite: 1}}
	sess := shedSession(t)
	b := &event.Cols{}
	for i := 0; i < 100; i++ {
		b.Append(event.Rec{Op: event.OpWrite, PC: 3, Addr: 0x100})
	}
	if shed := srv.shedRecords(sess, b); shed != 0 {
		t.Fatalf("idle pipeline shed %d records", shed)
	}
	if b.Len() != 100 {
		t.Fatalf("batch compacted while not shedding: %d/100", b.Len())
	}
	if sess.shedding {
		t.Fatal("latch set with occupancy 0 below the high watermark")
	}
}

// The latch releases when occupancy falls below the low watermark: the
// same batch shape stops being shed once pressure clears.
func TestShedLatchReleases(t *testing.T) {
	srv := &Server{opts: Options{ShedHighWater: -1, ShedLowWater: 0.5, ShedHotSite: 1}}
	sess := shedSession(t)
	b := &event.Cols{}
	for i := 0; i < 10; i++ {
		b.Append(event.Rec{Op: event.OpWrite, PC: 9, Addr: 0x40})
	}
	if shed := srv.shedRecords(sess, b); shed != 9 {
		t.Fatalf("latched shedder dropped %d, want 9", shed)
	}
	if !sess.shedding {
		t.Fatal("latch not set at occupancy >= high watermark")
	}
	// Raise the high watermark out of reach: occupancy 0 is now below the
	// low watermark, so the next batch unlatches and keeps everything.
	srv.opts.ShedHighWater = 2
	b2 := &event.Cols{}
	for i := 0; i < 10; i++ {
		b2.Append(event.Rec{Op: event.OpWrite, PC: 9, Addr: 0x40})
	}
	if shed := srv.shedRecords(sess, b2); shed != 0 {
		t.Fatalf("unlatched shedder dropped %d", shed)
	}
	if sess.shedding {
		t.Fatal("latch did not release below the low watermark")
	}
}
