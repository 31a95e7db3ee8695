package sim

import (
	"testing"

	"mpppb/internal/workload"
)

// TestLLCStreamPolicyInvariance verifies the soundness property that the
// two-pass Bélády MIN and the ROC measurement mode rely on (DESIGN.md):
// the LLC reference stream — and everything above the LLC — is independent
// of the LLC replacement policy. L1/L2 are fixed LRU, the prefetcher
// trains on L1 misses, and bypassed fills still populate the upper levels,
// so only LLC *hit rates* may differ between policies, never the sequence
// or count of LLC lookups.
func TestLLCStreamPolicyInvariance(t *testing.T) {
	cfg := shortCfg()
	for _, bench := range []string{"gcc_like", "libquantum_like", "data_caching_like"} {
		gen := workload.NewGenerator(seg(bench, 0), 0)
		type snapshot struct {
			l1Acc, l1Miss    uint64
			l2Acc, l2Miss    uint64
			llcAcc           uint64
			llcPrefetch      uint64
			prefetchesIssued uint64
		}
		var snaps []snapshot
		var names []string
		for _, pol := range []string{"lru", "random", "mpppb", "hawkeye", "sdbp"} {
			pf, err := Policy(pol)
			if err != nil {
				t.Fatal(err)
			}
			gen.Reset()
			m := newMachine(cfg, pf, false, gen)
			m.untimedPhase(cfg.Warmup + cfg.Measure)
			llc, h := m.llc, m.nodes[0].h
			snaps = append(snaps, snapshot{
				l1Acc: h.L1.Stats.Accesses, l1Miss: h.L1.Stats.Misses,
				l2Acc: h.L2.Stats.Accesses, l2Miss: h.L2.Stats.Misses,
				llcAcc:           llc.Stats.DemandAccesses + llc.Stats.PrefetchAccesses,
				llcPrefetch:      llc.Stats.PrefetchAccesses,
				prefetchesIssued: h.PrefetchesIssued,
			})
			names = append(names, pol)
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i] != snaps[0] {
				t.Errorf("%s: upper-level behaviour differs between %s and %s:\n%+v\n%+v",
					bench, names[0], names[i], snaps[0], snaps[i])
			}
		}
	}
}
