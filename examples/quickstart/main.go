// Quickstart: build a small multithreaded program with the public API, run
// it under FastTrack with dynamic granularity, and print the data races it
// finds.
//
//	go run ./examples/quickstart
//
// The program has two bugs a happens-before detector catches and one
// red herring it correctly ignores:
//
//   - `counter` is incremented by both workers without a lock (a race);
//   - `done` is written by a worker and read by main without ordering
//     (a race);
//   - `table` is accessed by both workers but always under `mu` (no race,
//     and no false alarm — unlike a lockset tool, FastTrack also accepts
//     the fork/join ordering of `setup`).
package main

import (
	"fmt"

	"repro/race"
)

func main() {
	const (
		setup   = 0x1000 // written by main before the workers exist
		table   = 0x2000 // lock-protected shared table
		counter = 0x3000 // unprotected counter: race
		done    = 0x3008 // unprotected flag: race
	)

	prog := race.Program{Name: "quickstart", Main: func(t *race.Thread) {
		t.At(1)
		t.Write(setup, 8) // safe: happens-before the forks

		mu := t.NewLock()
		worker := func(w *race.Thread) {
			w.At(2)
			w.Read(setup, 8) // safe: ordered by fork
			for i := 0; i < 100; i++ {
				w.Lock(mu)
				w.At(3)
				w.Read(table, 8)
				w.Write(table, 8) // safe: consistently locked
				w.Unlock(mu)

				w.At(4)
				w.Read(counter, 8)
				w.Write(counter, 8) // RACE: no lock
			}
			w.At(5)
			w.Write(done, 8) // RACE: main reads this without ordering
		}
		a := t.Go(worker)
		b := t.Go(worker)

		t.At(6)
		t.Read(done, 8) // unordered peek at the flag

		t.Join(a)
		t.Join(b)
	}}

	rep := race.Run(prog, race.Options{
		Tool:        race.FastTrack,
		Granularity: race.Dynamic,
		Seed:        1,
	})

	fmt.Printf("analyzed %d accesses from %d threads\n",
		rep.Run.Accesses, rep.Run.Threads)
	fmt.Printf("detector: %v (%v granularity), %v elapsed\n",
		rep.Tool, rep.Granularity, rep.Elapsed.Round(1000))
	fmt.Printf("found %d races:\n", len(rep.Races))
	for _, r := range rep.Races {
		fmt.Printf("  %v\n", r)
	}
	if len(rep.Races) != 2 {
		panic("expected exactly the two seeded races")
	}
}
