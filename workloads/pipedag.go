package workloads

import "repro/internal/sim"

// Pipedag models a three-stage pipeline DAG with dedicated lanes: 24
// producers each feed their own buffered channel, 24 transformers consume
// their lane and forward over per-lane unbuffered channels, and one merger
// selects across every lane. Properties the model reproduces:
//
//   - the full Go-native sync surface in one program: buffered per-lane
//     handoff, unbuffered rendezvous (send/recv/ack), and a wide
//     select-based merge;
//   - lane-local knowledge: each transformer only ever observes its own
//     producer's lane, while the merger alone absorbs every lane's time;
//   - two deliberate races far apart in the DAG: a "progress" word the
//     first two producers update unprotected against each other, and a
//     "tail" word transformer 0 writes that the merger reads without any
//     ordering edge — each isolated in its own shadow block so every
//     granularity reports the same set.
func Pipedag() Spec {
	const lanes = 24
	return Spec{
		Name:        "pipedag",
		Threads:     2*lanes + 2, // producers + transformers + merger + main
		Races:       2,
		Description: "three-stage pipeline DAG over dedicated lanes with two seeded races",
		Build: func(scale int) sim.Program {
			return sim.Program{Name: "pipedag", Main: func(m *sim.Thread) {
				perLane := 40 * scale
				const tabWords = 32
				const (
					siteTab = 12200 + iota
					siteProduce
					siteTransform
					siteMerge
					siteProg
					siteTail
				)
				tab := m.Malloc(tabWords * 4)
				out := m.Malloc(tabWords * 4)
				prog := m.Malloc(384) // racy word at +160, block-isolated
				tail := m.Malloc(384) // racy word at +160, block-isolated

				m.At(siteTab)
				m.WriteBlock(tab, 4, tabWords)

				var ch1, ch2 [lanes]sim.ChanID
				for l := 0; l < lanes; l++ {
					ch1[l] = m.NewChan(2)
					ch2[l] = m.NewChan(0)
				}

				var hs []*sim.Thread
				for l := 0; l < lanes; l++ {
					l := l
					hs = append(hs, m.Go(func(t *sim.Thread) {
						scratch := t.Malloc(tabWords * 4)
						for i := 0; i < perLane; i++ {
							t.At(siteProduce)
							for k := 0; k < tabWords; k++ {
								t.Read(tab+uint64(k)*4, 4)
								t.Write(scratch+uint64(k)*4, 4)
							}
							if l < 2 && i%20 == 0 {
								t.At(siteProg) // producers race with each other here
								t.Read(prog+160, 4)
								t.Write(prog+160, 4)
							}
							t.Send(ch1[l], uint64(i))
						}
						t.Free(scratch)
					}))
				}
				for l := 0; l < lanes; l++ {
					l := l
					hs = append(hs, m.Go(func(t *sim.Thread) {
						scratch := t.Malloc(tabWords * 4)
						for i := 0; i < perLane; i++ {
							v := t.Recv(ch1[l])
							t.At(siteTransform)
							for k := 0; k < tabWords; k++ {
								t.Read(tab+uint64(k)*4, 4)
								t.Write(scratch+uint64(k)*4, 4)
							}
							if l == 0 && i%15 == 0 {
								t.At(siteTail) // read concurrently by the merger
								t.Write(tail+160, 4)
							}
							t.Send(ch2[l], v)
						}
						t.Free(scratch)
					}))
				}
				hs = append(hs, m.Go(func(t *sim.Thread) {
					total := lanes * perLane
					for i := 0; i < total; i++ {
						_, v := t.Select(ch2[:]...)
						t.At(siteMerge)
						t.Read(tab+(v%tabWords)*4, 4)
						t.Write(out+(v%tabWords)*4, 4)
						if i%80 == 0 {
							t.At(siteTail)
							t.Read(tail+160, 4) // races with transformer 0's writes
						}
					}
				}))
				joinAll(m, hs)
				m.Free(tab)
				m.Free(out)
				m.Free(prog)
				m.Free(tail)
			}}
		},
	}
}
