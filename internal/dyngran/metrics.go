// Telemetry for one shadow plane. The plane counts into a plain Tally at
// exactly the sites that bump the corresponding Stats fields (where one
// exists); the owning detector adds the tally to the registry's counters
// in batches (Metrics.Publish), so the shadow hot path performs no atomic
// operation and a run's counters still reconcile 1:1 against Plane.St once
// the detector has published — pinned by race.TestTelemetryReconciliation.
package dyngran

import "repro/internal/telemetry"

// Tally is one plane's count of telemetry facts not yet published. Plane
// code increments it; Metrics.Publish adds it to the registry and zeroes
// it.
type Tally struct {
	// Node churn (mirrors Stats.NodeAllocs plus the release side the
	// tables never needed). NodeRecycles mirrors Stats.NodeRecycles: the
	// subset of allocations the plane freelist served without touching the
	// Go heap.
	NodeAllocs, NodeReleases, NodeRecycles uint64
	// Merges and Splits mirror Stats.Merges / Stats.Splits.
	Merges, Splits uint64

	// Figure 2 state-machine transitions: entering Init (node creation),
	// Shared, Private, and Race.
	ToInit, ToShared, ToPrivate, ToRace uint64

	// Sharing decisions: first-epoch (Init-state, including the
	// extend-left fast path) and second-epoch (final), split by verdict.
	FirstShareTaken, FirstShareRejected uint64
	ShareTaken, ShareRejected           uint64
}

// Metrics is the per-plane telemetry instrument set, one counter per Tally
// field. Construct with NewMetrics.
type Metrics struct {
	NodeAllocs, NodeReleases, NodeRecycles *telemetry.Counter
	Merges, Splits                         *telemetry.Counter
	ToInit, ToShared, ToPrivate, ToRace    *telemetry.Counter
	FirstShareTaken, FirstShareRejected    *telemetry.Counter
	ShareTaken, ShareRejected              *telemetry.Counter
}

// NewMetrics registers the plane instrument family on r with a plane label
// ("read" or "write"). A nil registry yields a valid Metrics whose
// counters are all nil.
func NewMetrics(r *telemetry.Registry, kind Kind) *Metrics {
	plane := "read"
	if kind == WritePlane {
		plane = "write"
	}
	l := telemetry.Labels{"plane": plane}
	m := &Metrics{
		NodeAllocs:   r.Counter("shadow_node_allocs_total", "Shadow clock-node allocations.", l),
		NodeReleases: r.Counter("shadow_node_releases_total", "Shadow clock-node releases.", l),
		NodeRecycles: r.Counter("shadow_node_recycles_total", "Shadow clock-node allocations served by the plane freelist.", l),
		Merges:       r.Counter("shadow_node_merges_total", "Clock-sharing merge events (incl. extend-left).", l),
		Splits:       r.Counter("shadow_node_splits_total", "Clock-sharing split events.", l),
	}
	for _, t := range []struct {
		to string
		c  **telemetry.Counter
	}{
		{"init", &m.ToInit},
		{"shared", &m.ToShared},
		{"private", &m.ToPrivate},
		{"race", &m.ToRace},
	} {
		*t.c = r.Counter("detector_state_transitions_total",
			"Figure 2 state-machine transitions, by destination state.",
			l, telemetry.Labels{"to": t.to})
	}
	for _, t := range []struct {
		epoch, verdict string
		c              **telemetry.Counter
	}{
		{"first", "taken", &m.FirstShareTaken},
		{"first", "rejected", &m.FirstShareRejected},
		{"second", "taken", &m.ShareTaken},
		{"second", "rejected", &m.ShareRejected},
	} {
		*t.c = r.Counter("detector_sharing_decisions_total",
			"Granularity sharing decisions, by epoch and verdict.",
			l, telemetry.Labels{"epoch": t.epoch, "verdict": t.verdict})
	}
	return m
}

// Publish adds t to the counters and zeroes it. The caller owns t (the
// plane's detector); the counters are atomic, so planes of several
// detectors may publish into one Metrics concurrently.
func (m *Metrics) Publish(t *Tally) {
	m.NodeAllocs.Add(t.NodeAllocs)
	m.NodeReleases.Add(t.NodeReleases)
	m.NodeRecycles.Add(t.NodeRecycles)
	m.Merges.Add(t.Merges)
	m.Splits.Add(t.Splits)
	m.ToInit.Add(t.ToInit)
	m.ToShared.Add(t.ToShared)
	m.ToPrivate.Add(t.ToPrivate)
	m.ToRace.Add(t.ToRace)
	m.FirstShareTaken.Add(t.FirstShareTaken)
	m.FirstShareRejected.Add(t.FirstShareRejected)
	m.ShareTaken.Add(t.ShareTaken)
	m.ShareRejected.Add(t.ShareRejected)
	*t = Tally{}
}
