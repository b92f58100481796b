//go:build race

package tables

// raceDetectorOn skips the wall-clock orderings between detectors when the
// test binary runs under the Go race detector: its instrumentation slows
// each detector's Go code by a different factor, so the orderings measure
// the instrumentation, not the detectors. They run in the regular
// (uninstrumented) test pass.
const raceDetectorOn = true
