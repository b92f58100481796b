// Columnar batch apply with run-length collapse. A structure-of-arrays
// batch (event.Cols) exposes the op/tid/addr/size columns directly, so
// consecutive accesses by one thread to one granule — the dominant shape
// in locality-heavy streams — are visible as a run without decoding
// per-record structs. The detector applies the first access of each run
// in full and folds the repeats into a single accounting bump: the first
// application marks the thread's epoch bitmap over the access footprint,
// so every repeat is guaranteed to take the same-epoch fast path, whose
// only observable effects are the Accesses/SameEpoch counters and the
// provenance ordinal. One shadow lookup per run instead of one per event.
package detector

import "repro/internal/event"

// RepeatAccess accounts n exact repeats of the immediately preceding
// shared access. A repeat with no intervening event of the same thread
// necessarily takes the same-epoch bitmap fast path — the preceding
// application set the footprint's check bits, and only the thread's own
// epoch-starting events clear them — so shadow, clock and race state are
// untouched; the repeats contribute only the accounting the fast path
// performs.
func (d *Detector) RepeatAccess(n uint64) {
	if n == 0 {
		return
	}
	d.stats.Accesses += n
	d.stats.SameEpoch += n
	d.maybePublish()
	if d.prov != nil {
		d.prov.tickN(n)
	}
}

// ApplyCols implements event.BatchSink: it replays a columnar batch in
// record order, collapsing each maximal run of identical (tid, op, addr,
// size) accesses into one full application plus a RepeatAccess of the
// remainder. PCs are deliberately excluded from the run key: a repeat
// never reaches the shadow planes or the provenance ring, so its PC is
// unobservable — collapsing across PC-distinct repeats is still
// verdict-identical to the record-at-a-time path.
func (d *Detector) ApplyCols(c *event.Cols) {
	n := c.Len()
	for i := 0; i < n; {
		op := c.Ops[i]
		if op != event.OpRead && op != event.OpWrite {
			r := c.Rec(i)
			if d.prov != nil && d.prov.extSeq {
				d.prov.seq = r.Seq
			}
			event.ApplyRec(d, &r)
			i++
			continue
		}
		tid, addr, size := c.Tids[i], c.Addrs[i], c.Sizes[i]
		j := i + 1
		for j < n && c.Ops[j] == op && c.Tids[j] == tid && c.Addrs[j] == addr && c.Sizes[j] == size {
			j++
		}
		if d.prov != nil && d.prov.extSeq {
			d.prov.seq = c.Seqs[i]
		}
		if op == event.OpRead {
			d.Read(tid, addr, size, c.PCs[i])
		} else {
			d.Write(tid, addr, size, c.PCs[i])
		}
		if k := uint64(j - i - 1); k > 0 {
			if event.NonShared(addr) {
				// Repeats of a stack access repeat its accounting too.
				d.stats.NonShared += k
				d.maybePublish()
			} else {
				if d.prov != nil && d.prov.extSeq {
					d.prov.seq = c.Seqs[j-1]
				}
				d.RepeatAccess(k)
			}
		}
		i = j
	}
}
