//go:build !race

package pipeline

// raceDetectorOn reports whether the test binary runs under the Go race
// detector; see racedetector_on_test.go.
const raceDetectorOn = false
