// Package repro is a from-scratch Go reproduction of "Efficient Data Race
// Detection for C/C++ Programs Using Dynamic Granularity" (Song & Lee,
// IPPS 2014): FastTrack-style happens-before race detection whose
// detection unit starts at byte granularity and grows dynamically by
// sharing one vector clock among neighbouring memory locations, governed
// by the paper's Init/Shared/Private/Race state machine.
//
// The public API lives in the race package (detectors and reports) and the
// workloads package (the eleven benchmark programs of the paper's
// evaluation plus three Go-native synchronization families). The execution substrate that replaces the paper's Intel PIN
// instrumentation, the shadow-memory structures, and every detector
// implementation live under internal/; see DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-vs-measured record of every
// table and figure.
//
// Quick start:
//
//	go run ./examples/quickstart      # detect a race with the public API
//	go run ./cmd/racedetect -list     # the benchmark suite
//	go run ./cmd/benchtables          # regenerate Tables 1-6 and this repo's Table 7
//	go test ./... && go test -bench=. # the full test and bench suite
package repro
