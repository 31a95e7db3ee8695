package sim

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// TestLLCStreamPolicyInvariance verifies, on the serial reference machine,
// the soundness property that capture and replay, the two-pass Bélády MIN
// and the ROC measurement mode rely on (DESIGN.md): the LLC reference
// stream, and everything above the LLC, is independent of the LLC
// replacement policy. L1/L2 are fixed LRU, the prefetcher trains on L1
// misses, and bypassed fills still populate the upper levels, so only LLC
// *hit rates* may differ between policies, never the sequence or count of
// LLC lookups. The prefetches each core issues are counted at its L2.
func TestLLCStreamPolicyInvariance(t *testing.T) {
	cfg := shortCfg()
	for _, bench := range []string{"gcc_like", "libquantum_like", "data_caching_like"} {
		gen := workload.NewGenerator(seg(bench, 0), 0)
		type snapshot struct {
			l1Acc, l1Miss uint64
			l2Acc, l2Miss uint64
			l2Prefetch    uint64
			llcAcc        uint64
			llcPrefetch   uint64
		}
		var snaps []snapshot
		var names []string
		for _, pol := range []string{"lru", "random", "mpppb", "hawkeye", "sdbp"} {
			pf, err := Policy(pol)
			if err != nil {
				t.Fatal(err)
			}
			gen.Reset()
			m := newRefMachine(cfg, pf, false, gen)
			m.phase(cfg.Warmup+cfg.Measure, nil)
			llc, h := m.llc, m.nodes[0].h
			snaps = append(snaps, snapshot{
				l1Acc: h.l1.Stats.Accesses, l1Miss: h.l1.Stats.Misses,
				l2Acc: h.l2.Stats.Accesses, l2Miss: h.l2.Stats.Misses,
				l2Prefetch:  h.l2.Stats.PrefetchAccesses,
				llcAcc:      llc.Stats.DemandAccesses + llc.Stats.PrefetchAccesses,
				llcPrefetch: llc.Stats.PrefetchAccesses,
			})
			names = append(names, pol)
		}
		if snaps[0].l2Prefetch == 0 {
			t.Fatalf("%s: no prefetch reached L2; the check proves nothing", bench)
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i] != snaps[0] {
				t.Errorf("%s: upper-level behaviour differs between %s and %s:\n%+v\n%+v",
					bench, names[0], names[i], snaps[0], snaps[i])
			}
		}
	}
}

// streamLog records, per core, every access a cache completes: what the
// core asked for and, for the private levels, which frame it touched.
type streamLog struct{ cores [][]event }

type event struct {
	typ      trace.AccessType
	pc, addr uint64
	set, way int
	hit      bool
	evicted  uint64
}

func (l *streamLog) OnAccess(a cache.Access, r cache.Result) {
	for len(l.cores) <= a.Core {
		l.cores = append(l.cores, nil)
	}
	l.cores[a.Core] = append(l.cores[a.Core], event{a.Type, a.PC, a.Addr, r.Set, r.Way, r.Hit, r.EvictedAddr})
}

// TestLLCStreamPolicyInvarianceTimedMulti extends the invariance to timed
// four-core runs, where the policy changes every core's timing and so how
// far each core runs: each core's L2 outcomes and its LLC requests, in
// order, must be one stream that every policy reads a prefix of. The LLC's
// own outcomes are left out of its log, since they are the policy's.
func TestLLCStreamPolicyInvarianceTimedMulti(t *testing.T) {
	cfg := MultiCoreConfig()
	cfg.Warmup, cfg.Measure = 20_000, 80_000
	mix := workload.Mixes(4, workload.DefaultMixSeed)[3]
	type logs struct{ l2, llc [4][]event }
	var runs []logs
	var names []string
	for _, pol := range []string{"lru", "random", "mpppb-srrip", "hawkeye", "sdbp"} {
		pf, err := Policy(pol)
		if err != nil {
			t.Fatal(err)
		}
		var gens [4]trace.Generator
		for i, id := range mix {
			gens[i] = workload.NewGenerator(id, workload.CoreBase(i))
		}
		m := newRefMachine(cfg, pf, true, gens[:]...)
		llc := &llcRequests{}
		m.llc.SetObserver(llc)
		l2 := make([]*streamLog, 4)
		for i := range m.nodes {
			l2[i] = &streamLog{}
			m.nodes[i].h.l2.SetObserver(l2[i])
		}
		m.run(nil, nil)
		var run logs
		for i := range run.l2 {
			run.l2[i] = l2[i].cores[i]
			if i < len(llc.cores) {
				run.llc[i] = llc.cores[i]
			}
		}
		runs = append(runs, run)
		names = append(names, pol)
	}
	prefix := func(a, b []event) bool {
		if len(a) > len(b) {
			a, b = b, a
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for core := 0; core < 4; core++ {
		if len(runs[0].llc[core]) == 0 {
			t.Fatalf("core %d made no LLC request; the check proves nothing", core)
		}
		for i := 1; i < len(runs); i++ {
			if !prefix(runs[0].l2[core], runs[i].l2[core]) {
				t.Errorf("core %d: L2 outcomes under %s and %s are not one stream", core, names[0], names[i])
			}
			if !prefix(runs[0].llc[core], runs[i].llc[core]) {
				t.Errorf("core %d: LLC requests under %s and %s are not one stream", core, names[0], names[i])
			}
		}
	}
}

// llcRequests logs each core's LLC requests without their outcomes.
type llcRequests struct{ streamLog }

func (l *llcRequests) OnAccess(a cache.Access, _ cache.Result) {
	l.streamLog.OnAccess(a, cache.Result{})
}
