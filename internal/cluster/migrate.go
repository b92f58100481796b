// Slot migration: moving one hash slot from its owner to another server
// mid-stream without dropping verdicts.
//
// The detector is stateful — a member's verdicts for a block depend on
// every access to that block plus the whole sync history — so moving a
// slot needs the target to reconstruct that history. The coordinator
// keeps an ordered journal of the stream's sync/heap broadcasts and
// access pieces (tagged with their slot) while a migration is scheduled.
// The move itself is:
//
//  1. Drain-to-watermark: Flush the current owner, blocking until it has
//     acknowledged every batch shipped so far. Its state for the slot is
//     now complete up to the watermark, so every verdict it has already
//     produced for the slot is also derivable from the journal prefix.
//  2. Fresh session on the target: dial it like any member (Hello/
//     HelloAck, its own sequence space — the same resume
//     machinery an interrupted client uses, pointed at a new server).
//  3. Replay: feed the journal through the new session — sync events
//     in full, access pieces filtered to the moved slot — in original
//     stream order, so the target's clock replica and the slot's shadow
//     state converge to exactly the owner's.
//  4. Flip the ring: Move(slot, target) reroutes every future piece.
//     The old owner keeps its other slots and stays in the broadcast set.
//
// At Close the old owner's verdicts for the moved slot are dropped
// (dropMovedRaces): the target re-derived them from the replayed prefix
// and kept extending them, so the union stays exactly the single-process
// race set — no verdict is lost and none is duplicated.
//
// A dial failure aborts the migration harmlessly: the ring is not
// flipped, the owner keeps the slot, and the stream continues.
package cluster

import (
	"repro/internal/client"
	"repro/internal/event"
)

// Migration schedules a single slot move mid-stream.
type Migration struct {
	// Slot is the hash slot to move; -1 picks, at trigger time, the slot
	// of the most recent access piece (guaranteeing the moved slot has
	// traffic, which is what exercises the path).
	Slot int
	// To is the target server address. It may be an existing member (the
	// slot then runs on a second session of that server) or a fresh one.
	To string
	// AfterEvents triggers the migration once the router has observed
	// this many events.
	AfterEvents uint64
}

// jrec is one journaled record: slot < 0 marks a broadcast (sync/heap)
// event, otherwise the access piece's slot.
type jrec struct {
	rec  event.Rec
	slot int16
}

// record appends to the migration journal (no-op unless a migration is
// pending — the journal exists only to seed the migration target; a
// production deployment would source the replay from the durable trace
// store instead of coordinator memory).
func (s *Sink) record(slot int16, r event.Rec) {
	if s.mig == nil || s.migrated {
		return
	}
	s.journal = append(s.journal, jrec{rec: r, slot: slot})
}

// maybeMigrate runs the scheduled migration once the trigger is reached.
func (s *Sink) maybeMigrate() {
	if s.mig == nil || s.migrated || s.seq < s.mig.AfterEvents {
		return
	}
	slot := s.mig.Slot
	if slot < 0 {
		if s.lastSlot < 0 {
			return // no access traffic yet; keep waiting
		}
		slot = s.lastSlot
	}
	s.migrated = true
	from := s.ring.OwnerOfSlot(slot)
	// Drain the owner to its watermark. A flush failure means the member
	// is already lost (its client error is sticky and will surface as a
	// *MemberError at Close); migrating its slot would not rescue the
	// other slots it owns, so abort.
	if err := s.members[from].cl.Flush(); err != nil {
		s.log.Warn("cluster migration aborted", "slot", slot, "step", "drain",
			"member", s.members[from].addr, "err", err)
		return
	}
	watermark := s.members[from].cl.LastAcked()
	cl, err := client.Dial(s.clientOptions(s.mig.To))
	if err != nil {
		s.log.Warn("cluster migration aborted", "slot", slot, "step", "dial",
			"member", s.mig.To, "err", err)
		return
	}
	replayed := 0
	for i := range s.journal {
		j := &s.journal[i]
		if j.slot < 0 || int(j.slot) == slot {
			event.ApplyRec(cl, &j.rec)
			replayed++
		}
	}
	s.members = append(s.members, &member{addr: s.mig.To, cl: cl})
	s.met.addMember(s.mig.To)
	s.met.members.Set(int64(len(s.members)))
	s.ring.Move(slot, len(s.members)-1)
	s.movedSlot, s.movedFrom = slot, from
	s.journal = nil
	s.met.migrations.Inc()
	s.log.Info("cluster slot migrated", "slot", slot,
		"from", s.members[from].addr, "to", s.mig.To, "watermark", watermark,
		"replayed", replayed, "events", s.seq)
}
