package detector

import "repro/internal/event"

// ApplyCols replays a columnar batch (a decoded wire frame) into d in
// record order, exactly as one ApplyRec per record would. When the
// flight recorder takes its ordinals from the stream, each record's Seq
// is stamped before the record is applied.
func (d *Detector) ApplyCols(c *event.Cols) {
	extSeq := d.prov != nil && d.prov.extSeq
	for i, op := range c.Ops {
		if extSeq {
			d.prov.seq = c.Seqs[i]
		}
		switch op {
		case event.OpRead:
			d.Read(c.Tids[i], c.Addrs[i], c.Sizes[i], c.PCs[i])
		case event.OpWrite:
			d.Write(c.Tids[i], c.Addrs[i], c.Sizes[i], c.PCs[i])
		default:
			r := c.Rec(i)
			event.ApplyRec(d, &r)
		}
	}
}
