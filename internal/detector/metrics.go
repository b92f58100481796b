// Telemetry for the detector front end. The access path counts only into
// plain per-detector state — the Stats fields each counter mirrors, the
// reshare decisions, and the shadow planes' tallies (dyngran.Tally) — and
// Publish adds what accumulated since its last call to the registry's
// shared counters. The access path publishes every publishEvery memory
// accesses (shared or stack), a pipeline worker after every batch it
// applies, and Stats before it returns; so the per-access path performs
// no atomic read-modify-write, a live counter trails its Stats twin by at
// most one publication interval, and once Stats has returned (or a
// pipeline's Wait, which calls it) every counter equals its twin exactly
// — pinned by race.TestTelemetryReconciliation.
package detector

import (
	"repro/internal/dyngran"
	"repro/internal/telemetry"
)

// publishEvery is the number of memory accesses, shared or stack, between
// two publications from the access path.
const publishEvery = 1024

// maybePublish publishes once the memory accesses counted reach pubAt.
func (d *Detector) maybePublish() {
	if d.stats.Accesses+d.stats.NonShared >= d.pubAt {
		d.Publish()
	}
}

// Metrics is the detector instrument set. Construct with NewMetrics.
type Metrics struct {
	// Front-end event accounting (mirrors Stats.Accesses / SameEpoch /
	// NonShared).
	Accesses  *telemetry.Counter
	SameEpoch *telemetry.Counter
	NonShared *telemetry.Counter
	// SharingComparisons mirrors Stats.SharingComparisons.
	SharingComparisons *telemetry.Counter
	// LocCreations mirrors Stats.Plane.LocCreations (first-access location
	// creations across both planes).
	LocCreations *telemetry.Counter
	// Races / Suppressed mirror Stats.Races / Stats.Suppressed.
	Races      *telemetry.Counter
	Suppressed *telemetry.Counter
	// Reshares counts adaptive-resharing re-decisions (the ReshareInterval
	// extension).
	Reshares *telemetry.Counter

	// Read / Write are the per-plane shadow instrument sets (node churn,
	// state transitions, sharing decisions).
	Read  *dyngran.Metrics
	Write *dyngran.Metrics
}

// NewMetrics registers the detector metric families on r. A nil registry
// yields a valid Metrics whose counters are all nil.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Accesses:           r.Counter("detector_accesses_total", "Memory-access events processed (post stack filter)."),
		SameEpoch:          r.Counter("detector_same_epoch_hits_total", "Accesses filtered by the per-thread same-epoch bitmaps."),
		NonShared:          r.Counter("detector_nonshared_total", "Stack accesses filtered by the non-shared check."),
		SharingComparisons: r.Counter("detector_sharing_comparisons_total", "Clock comparisons made for sharing decisions."),
		LocCreations:       r.Counter("detector_loc_creations_total", "First-access shadow location creations."),
		Races:              r.Counter("detector_races_total", "Data races reported."),
		Suppressed:         r.Counter("detector_races_suppressed_total", "Races hidden by module suppression."),
		Reshares:           r.Counter("detector_reshares_total", "Adaptive re-sharing decisions after the second epoch."),
		Read:               dyngran.NewMetrics(r, dyngran.ReadPlane),
		Write:              dyngran.NewMetrics(r, dyngran.WritePlane),
	}
}

// published is the part of a detector's counts already added to its
// Metrics.
type published struct {
	accesses, sameEpoch, nonShared   uint64
	sharingComparisons, locCreations uint64
	races, suppressed, reshares      uint64
}

// Publish adds the detector's counts since its last publication to the
// registry counters. It does nothing when the detector has no Metrics.
// Like every detector method it must be called from the goroutine that
// owns the detector.
func (d *Detector) Publish() {
	m := d.met
	if m == nil {
		return
	}
	s := &d.stats
	now := published{
		accesses: s.Accesses, sameEpoch: s.SameEpoch, nonShared: s.NonShared,
		sharingComparisons: s.SharingComparisons, locCreations: s.Plane.LocCreations,
		races: s.Races, suppressed: s.Suppressed, reshares: d.reshares,
	}
	was := &d.pub
	m.Accesses.Add(now.accesses - was.accesses)
	m.SameEpoch.Add(now.sameEpoch - was.sameEpoch)
	m.NonShared.Add(now.nonShared - was.nonShared)
	m.SharingComparisons.Add(now.sharingComparisons - was.sharingComparisons)
	m.LocCreations.Add(now.locCreations - was.locCreations)
	m.Races.Add(now.races - was.races)
	m.Suppressed.Add(now.suppressed - was.suppressed)
	m.Reshares.Add(now.reshares - was.reshares)
	d.pub = now
	m.Read.Publish(&d.read.Tally)
	m.Write.Publish(&d.write.Tally)
	d.pubAt = s.Accesses + s.NonShared + publishEvery
}
