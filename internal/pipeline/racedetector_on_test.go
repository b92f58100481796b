//go:build race

package pipeline

// raceDetectorOn skips the allocation guards whose measured loop takes
// batches from a sync.Pool: under the race detector the pool drops a
// quarter of its puts at random, so the next get allocates. The guards
// run in the regular (uninstrumented) test pass.
const raceDetectorOn = true
