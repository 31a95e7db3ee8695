package sim

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// cacheReplacementPolicy aliases the cache policy interface for test
// readability.
type cacheReplacementPolicy = cache.ReplacementPolicy

// shortCfg scales the single-thread machine down for test speed.
func shortCfg() Config {
	cfg := SingleThreadConfig()
	cfg.Warmup = 100_000
	cfg.Measure = 400_000
	return cfg
}

func seg(bench string, s int) workload.SegmentID { return workload.SegmentID{Bench: bench, Seg: s} }

func TestConfigsMatchPaperGeometry(t *testing.T) {
	st := SingleThreadConfig()
	if st.L1Size != 32<<10 || st.L1Ways != 8 {
		t.Fatalf("L1 %d/%d", st.L1Size, st.L1Ways)
	}
	if st.L2Size != 256<<10 || st.L2Ways != 8 {
		t.Fatalf("L2 %d/%d", st.L2Size, st.L2Ways)
	}
	if st.LLCSize != 2<<20 || st.LLCWays != 16 {
		t.Fatalf("LLC %d/%d", st.LLCSize, st.LLCWays)
	}
	mc := MultiCoreConfig()
	if mc.LLCSize != 8<<20 {
		t.Fatalf("multicore LLC %d", mc.LLCSize)
	}
	if st.Lat.Mem-st.Lat.LLC != 200 {
		t.Fatalf("DRAM latency beyond LLC = %d, want 200", st.Lat.Mem-st.Lat.LLC)
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := map[string]bool{"lru": true, "srrip": true, "mpppb": true, "hawkeye": true,
		"perceptron": true, "sdbp": true, "mdpp": true, "drrip": true, "plru": true,
		"random": true, "mpppb-srrip": true}
	for n := range want {
		found := false
		for _, have := range names {
			if have == n {
				found = true
			}
		}
		if !found {
			t.Errorf("policy %q not registered", n)
		}
	}
	if _, err := Policy("nonesuch"); err == nil {
		t.Fatal("unknown policy resolved")
	}
	if _, err := Confidence("hawkeye"); err == nil {
		t.Fatal("hawkeye must not expose confidences (Section 6.3)")
	}
}

// TestPolicyWith: duel candidates reach only the adaptive policies, and
// are checked against the invariants of the policy that would run them.
func TestPolicyWith(t *testing.T) {
	tuned, err := core.ParseDuelCandidates("0,-9,-38,-117,42,15,6,0,0;0,-1,-3,-87,-6,15,2,1,0")
	if err != nil {
		t.Fatal(err)
	}
	run := func(pf PolicyFactory) [2]uint64 {
		cfg := SingleThreadConfig()
		cfg.Warmup, cfg.Measure = 100_000, 400_000
		res := RunSingle(cfg, workload.NewGenerator(workload.SegmentID{Bench: "gcc_like", Seg: 1}, 0), pf)
		return [2]uint64{res.LLCMisses, res.Bypasses}
	}
	def, _ := Policy("mpppb-adaptive")
	with, err := PolicyWith("mpppb-adaptive", tuned)
	if err != nil {
		t.Fatal(err)
	}
	if run(def) == run(with) {
		t.Error("duel candidates did not change the adaptive policy's run")
	}
	if _, err := PolicyWith("lru", tuned); err != nil {
		t.Errorf("a non-adaptive policy rejected the candidates: %v", err)
	}
	// π1 = 15 is an MDPP position, outside SRRIP's RRPV range.
	if _, err := PolicyWith("mpppb-adaptive-srrip", tuned); err == nil {
		t.Error("SRRIP adaptive policy accepted MDPP positions")
	}
	ascending := append([]core.ThresholdSet{{Tau1: -98, Tau2: -68, Tau3: -38}}, tuned...)
	if _, err := PolicyWith("mpppb-adaptive", ascending); err == nil {
		t.Error("ascending thresholds accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("lru", nil)
}

func TestRunSingleProducesPlausibleResult(t *testing.T) {
	cfg := shortCfg()
	gen := workload.NewGenerator(seg("gcc_like", 0), 0)
	pf, _ := Policy("lru")
	res := RunSingle(cfg, gen, pf)
	if res.Instructions < cfg.Measure {
		t.Fatalf("measured %d instructions, want >= %d", res.Instructions, cfg.Measure)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Fatalf("IPC = %g", res.IPC)
	}
	if res.MPKI <= 0 {
		t.Fatalf("MPKI = %g for an LLC-stressing benchmark", res.MPKI)
	}
	if res.Segment != "gcc_like-0" {
		t.Fatalf("segment name %q", res.Segment)
	}
}

func TestRunSingleDeterministic(t *testing.T) {
	cfg := shortCfg()
	pf, _ := Policy("mpppb")
	gen := workload.NewGenerator(seg("sphinx3_like", 1), 0)
	r1 := RunSingle(cfg, gen, pf)
	r2 := RunSingle(cfg, gen, pf)
	// Wall-clock throughput fields legitimately differ between runs.
	if r1.Deterministic() != r2.Deterministic() {
		t.Fatalf("two identical runs differ:\n%+v\n%+v", r1, r2)
	}
	if r1.SimSeconds <= 0 || r1.AccessesPerSec <= 0 {
		t.Fatalf("throughput fields not measured: %+v", r1)
	}
}

func TestFastMPKIAgreesWithTimedMPKI(t *testing.T) {
	cfg := shortCfg()
	pf, _ := Policy("lru")
	gen := workload.NewGenerator(seg("libquantum_like", 0), 0)
	timed := RunSingle(cfg, gen, pf)
	fast := RunFastMPKI(cfg, gen, pf)
	// Hit/miss behaviour is identical; the instruction accounting differs
	// by at most one record's worth.
	diff := timed.MPKI - fast.MPKI
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05*timed.MPKI+0.5 {
		t.Fatalf("fast MPKI %.3f vs timed %.3f", fast.MPKI, timed.MPKI)
	}
}

func TestPrefetcherHelpsStreams(t *testing.T) {
	cfg := shortCfg()
	pf, _ := Policy("lru")
	gen := workload.NewGenerator(seg("lbm_like", 0), 0)
	with := RunSingle(cfg, gen, pf)
	cfg.Prefetch = false
	without := RunSingle(cfg, gen, pf)
	if with.IPC <= without.IPC {
		t.Fatalf("prefetching did not help a stream: %.3f vs %.3f IPC", with.IPC, without.IPC)
	}
}

func TestThrashBenchmarkOrdering(t *testing.T) {
	// The paper's headline mechanism: on an LRU-pathological loop,
	// MIN >= MPPPB > LRU, and MPPPB must capture most of MIN's win.
	cfg := shortCfg()
	gen := workload.NewGenerator(seg("libquantum_like", 0), 0)
	lruRes, minRes := RunSingleMIN(cfg, gen)
	pf, _ := Policy("mpppb")
	mp := RunSingle(cfg, gen, pf)
	if !(minRes.IPC >= mp.IPC && mp.IPC > lruRes.IPC*1.2) {
		t.Fatalf("ordering violated: lru %.3f mpppb %.3f min %.3f", lruRes.IPC, mp.IPC, minRes.IPC)
	}
	if mp.Bypasses == 0 {
		t.Fatal("MPPPB did not bypass on a thrashing loop")
	}
}

// TestMINNeverWorseOnSuiteSample: on the single-thread machine every
// policy sees the same LLC access stream, so Belady's MIN with bypass is a
// lower bound on every registered policy's LLC misses. The sample is four
// segments of different classes plus every ninth segment of the suite.
// MIN minimizes misses, not stall cycles, so its IPC can fall a hair below
// LRU's (mcf_like-0 does); the IPC check covers the four classes only.
func TestMINNeverWorseOnSuiteSample(t *testing.T) {
	cfg := shortCfg()
	classes := []workload.SegmentID{
		seg("gcc_like", 0), seg("lbm_like", 1), seg("povray_like", 2), seg("data_caching_like", 0),
	}
	ids := append([]workload.SegmentID(nil), classes...)
	for i, id := range workload.Segments() {
		if i%9 == 0 {
			ids = append(ids, id)
		}
	}
	for k, id := range ids {
		gen := workload.NewGenerator(id, 0)
		lruRes, minRes := RunSingleMIN(cfg, gen)
		if k < len(classes) && minRes.IPC+1e-9 < lruRes.IPC {
			t.Errorf("%s: MIN IPC %.4f < LRU %.4f", id, minRes.IPC, lruRes.IPC)
		}
		for _, name := range PolicyNames() {
			pf, err := Policy(name)
			if err != nil {
				t.Fatal(err)
			}
			if r := RunSingle(cfg, gen, pf); minRes.LLCMisses > r.LLCMisses {
				t.Errorf("%s: MIN misses %d > %s's %d", id, minRes.LLCMisses, name, r.LLCMisses)
			}
		}
	}
}

func TestRunMultiBasics(t *testing.T) {
	cfg := MultiCoreConfig()
	cfg.Warmup = 50_000
	cfg.Measure = 200_000
	mix := workload.Mixes(1, 7)[0]
	pf, _ := Policy("lru")
	res := RunMulti(cfg, mix, pf)
	for i := 0; i < 4; i++ {
		if res.Instructions[i] < cfg.Measure {
			t.Fatalf("core %d ran %d instructions, want >= %d", i, res.Instructions[i], cfg.Measure)
		}
		if res.IPC[i] <= 0 || res.IPC[i] > 4 {
			t.Fatalf("core %d IPC %g", i, res.IPC[i])
		}
	}
	if res.MPKI <= 0 {
		t.Fatal("zero multicore MPKI")
	}
	// Statistics are snapshotted at each core's quota: the measured
	// instruction count can overshoot by at most one scheduling quantum.
	for i := 0; i < 4; i++ {
		if res.Instructions[i] > cfg.Measure+1000 {
			t.Fatalf("core %d snapshot too late: %d instructions", i, res.Instructions[i])
		}
	}
}

func TestWeightedSpeedupAgainstSingles(t *testing.T) {
	cfg := MultiCoreConfig()
	cfg.Warmup = 50_000
	cfg.Measure = 200_000
	mix := workload.Mixes(1, 7)[0]
	pf, _ := Policy("lru")
	// Each segment alone on the machine under LRU (Section 4.5).
	var single [4]float64
	for i, id := range mix {
		single[i] = RunSingle(cfg, workload.NewGenerator(id, workload.CoreBase(0)), pf).IPC
		if single[i] <= 0 || single[i] > 4 {
			t.Fatalf("single IPC[%d] = %g", i, single[i])
		}
	}
	res := RunMulti(cfg, mix, pf)
	ws := res.WeightedSpeedup(single)
	// Four cores sharing one LLC: weighted speedup in (0, 4].
	if ws <= 0 || ws > 4.2 {
		t.Fatalf("weighted speedup %g", ws)
	}
}

func TestROCProbeProducesBalancedSamples(t *testing.T) {
	cfg := shortCfg()
	cf, err := Confidence("mpppb")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(seg("gcc_like", 0), 0)
	samples := RunROC(cfg, gen, cf)
	if len(samples) < 1000 {
		t.Fatalf("only %d ROC samples", len(samples))
	}
	dead := 0
	for _, s := range samples {
		if s.Dead {
			dead++
		}
	}
	if dead == 0 || dead == len(samples) {
		t.Fatalf("degenerate outcome distribution: %d/%d dead", dead, len(samples))
	}
	curve := stats.ROC(samples)
	if auc := stats.AUC(curve); auc < 0.5 {
		t.Fatalf("trained MPPPB AUC %.3f below chance", auc)
	}
}

func TestROCProbeDoesNotSteerCache(t *testing.T) {
	// The probe must leave cache behaviour identical to plain LRU: same
	// miss count, no bypasses (Section 6.3's "make the prediction but not
	// apply the optimization").
	cfg := shortCfg()
	gen := workload.NewGenerator(seg("gcc_like", 1), 0)
	lruRes := RunFastMPKI(cfg, gen, newLRU)

	cf, _ := Confidence("perceptron")
	probeRes := RunFastMPKI(cfg, gen, func(sets, ways int) cacheReplacementPolicy {
		return newROCProbe(sets, ways, cf(sets, ways))
	})
	if probeRes.LLCMisses != lruRes.LLCMisses {
		t.Fatalf("probe changed miss count: %d vs LRU %d", probeRes.LLCMisses, lruRes.LLCMisses)
	}
	if probeRes.Bypasses != 0 {
		t.Fatalf("probe bypassed %d fills", probeRes.Bypasses)
	}
}
