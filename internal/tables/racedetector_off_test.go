//go:build !race

package tables

// raceDetectorOn reports whether the test binary runs under the Go race
// detector; see racedetector_on_test.go.
const raceDetectorOn = false
