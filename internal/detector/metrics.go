// Telemetry instruments for the detector front end. Counters are bumped at
// exactly the sites that bump the corresponding Stats fields, so summed
// telemetry reconciles against Detector.Stats() — pinned by
// race.TestTelemetryReconciliation. All instruments are nil-safe: a nil
// registry yields a valid Metrics whose increments are no-ops, so the hot
// path carries one predictable branch per site when telemetry is disabled.
package detector

import (
	"repro/internal/dyngran"
	"repro/internal/telemetry"
)

// Metrics is the detector instrument set. Construct with NewMetrics; the
// disabled set (from a nil registry) is valid and free.
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
// yields a valid, disabled Metrics (including disabled plane sets).
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

// noopDetectorMetrics is the shared disabled set installed when Config.Metrics
// is nil, so detector code increments unconditionally.
var noopDetectorMetrics = NewMetrics(nil)
