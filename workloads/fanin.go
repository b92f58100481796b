package workloads

import "repro/internal/sim"

// Fanin models a Go-style fan-in server at realistic service parallelism:
// 64 request workers score requests against a shared read-only config table
// and stream completion tokens over one buffered channel to the main
// thread, which aggregates per-worker totals. Properties the model
// reproduces:
//
//   - channel-only synchronization (no mutex): every edge between a
//     worker and the aggregator is a channel edge, and at this thread
//     count each publication queued at the hub is an O(threads) clock;
//   - a high same-epoch rate from the config table re-read every request
//     within an epoch, with aggregation ordered purely by send→recv
//     happens-before edges (a false positive here means a broken channel
//     clock edge);
//   - exactly one deliberately racy word: a "hot request id" that the
//     first two workers update unprotected, the known true race.
func Fanin() Spec {
	const workers = 64
	return Spec{
		Name:        "fanin",
		Threads:     workers + 1,
		Races:       1,
		Description: "channel fan-in server with one unprotected hot word",
		Build: func(scale int) sim.Program {
			return sim.Program{Name: "fanin", Main: func(m *sim.Thread) {
				requests := 30 * scale
				const cfgWords = 48
				const (
					siteCfg = 12000 + iota
					siteScore
					siteHot
					siteAgg
				)
				cfg := m.Malloc(cfgWords * 4)
				agg := m.Malloc(workers * 8)
				hot := m.Malloc(384) // single racy word at +160, block-isolated

				m.At(siteCfg)
				m.WriteBlock(cfg, 4, cfgWords)

				results := m.NewChan(8)
				var hs []*sim.Thread
				for w := 0; w < workers; w++ {
					w := w
					hs = append(hs, m.Go(func(t *sim.Thread) {
						scratch := t.Malloc(cfgWords * 4)
						for r := 0; r < requests; r++ {
							t.At(siteScore)
							for i := 0; i < cfgWords; i++ {
								t.Read(cfg+uint64(i)*4, 4)
								t.Write(scratch+uint64(i)*4, 4)
							}
							if w < 2 && r%16 == 0 {
								t.At(siteHot) // unprotected: the deliberate race
								t.Read(hot+160, 4)
								t.Write(hot+160, 4)
							}
							t.Send(results, uint64(w))
						}
						t.Free(scratch)
					}))
				}
				for i := 0; i < workers*requests; i++ {
					v := m.Recv(results)
					m.At(siteAgg)
					m.Read(agg+v*8, 4)
					m.Write(agg+v*8, 4)
				}
				joinAll(m, hs)
				m.Free(cfg)
				m.Free(agg)
				m.Free(hot)
			}}
		},
	}
}
