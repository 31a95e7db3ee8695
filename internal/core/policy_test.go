package core

import (
	"slices"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

func demand(pc, addr uint64) cache.Access {
	return cache.Access{PC: pc, Addr: addr, Type: trace.Load}
}

func TestNewMPPPBValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty feature set accepted")
		}
	}()
	NewMPPPB(64, 16, Params{})
}

func TestMPPPBNamesByDefaultPolicy(t *testing.T) {
	if got := NewMPPPB(64, 16, SingleThreadParams()).Name(); got != "mpppb-mdpp" {
		t.Fatalf("single-thread name %q", got)
	}
	if got := NewMPPPB(64, 16, MultiCoreParams()).Name(); got != "mpppb-srrip" {
		t.Fatalf("multi-core name %q", got)
	}
}

func TestPlacementThresholdMapping(t *testing.T) {
	params := SingleThreadParams()
	params.Tau1, params.Tau2, params.Tau3 = 60, 20, -20
	params.Pi = [3]int{15, 12, 9}
	m := NewMPPPB(64, 16, params)
	cases := []struct{ conf, pos, slot int }{
		{100, 15, 1},
		{61, 15, 1},
		{60, 12, 2}, // not strictly greater than Tau1
		{21, 12, 2},
		{0, 9, 3},
		{-19, 9, 3},
		{-20, 0, 0},
		{-200, 0, 0},
	}
	for _, c := range cases {
		pos, slot := m.thresholdsFor(0).placement(c.conf)
		if pos != c.pos || slot != c.slot {
			t.Errorf("placement(%d) = (%d,%d), want (%d,%d)", c.conf, pos, slot, c.pos, c.slot)
		}
	}
}

// runLLC drives a small LLC with the policy directly through the cache,
// returning it for inspection.
func runLLC(t *testing.T, params Params, accs []cache.Access) (*cache.Cache, *MPPPB) {
	t.Helper()
	var m *MPPPB
	c := cache.New("llc", 64, 16, func() cache.ReplacementPolicy {
		m = NewMPPPB(64, 16, params)
		return m
	}())
	for _, a := range accs {
		c.Access(a)
	}
	return c, m
}

func TestMPPPBBypassesAfterDeadTraining(t *testing.T) {
	// A single PC streams blocks that are never reused: the predictor must
	// learn to bypass them. Set 0 is sampled (spacing 1 with 64 sets).
	params := SingleThreadParams()
	var accs []cache.Access
	for i := 0; i < 6000; i++ {
		accs = append(accs, demand(0x400, uint64(i)<<trace.BlockBits))
	}
	llc, m := runLLC(t, params, accs)
	if m.Bypasses == 0 {
		t.Fatal("streaming dead blocks never bypassed")
	}
	if llc.Stats.Bypasses != m.Bypasses {
		t.Fatalf("cache bypass count %d != policy %d", llc.Stats.Bypasses, m.Bypasses)
	}
}

func TestMPPPBDoesNotBypassHotBlocks(t *testing.T) {
	// A small hot set accessed in a loop fits the cache: after warmup, hot
	// re-fills must not be bypassed and hits dominate.
	params := SingleThreadParams()
	var accs []cache.Access
	for round := 0; round < 200; round++ {
		for b := uint64(0); b < 256; b++ { // 256 blocks over 64 sets: 4 ways each
			accs = append(accs, demand(0x500, b<<trace.BlockBits))
		}
	}
	llc, _ := runLLC(t, params, accs)
	hitRate := float64(llc.Stats.DemandHits) / float64(llc.Stats.DemandAccesses)
	if hitRate < 0.95 {
		t.Fatalf("hot loop hit rate %.3f, want >= 0.95", hitRate)
	}
}

func TestMPPPBWritebacksIgnored(t *testing.T) {
	params := SingleThreadParams()
	m := NewMPPPB(64, 16, params)
	c := cache.New("llc", 64, 16, m)
	c.Access(demand(0x400, 0))
	trains := m.TrainEvents
	c.Access(cache.Access{Addr: 0, Type: trace.Writeback})
	if m.TrainEvents != trains {
		t.Fatal("writeback hit trained the predictor")
	}
}

func TestMPPPBBypassDisabled(t *testing.T) {
	params := SingleThreadParams()
	params.BypassEnabled = false
	var accs []cache.Access
	for i := 0; i < 6000; i++ {
		accs = append(accs, demand(0x400, uint64(i)<<trace.BlockBits))
	}
	llc, m := runLLC(t, params, accs)
	if m.Bypasses != 0 || llc.Stats.Bypasses != 0 {
		t.Fatal("bypass occurred despite BypassEnabled=false")
	}
}

func TestMPPPBNoPromoteCounting(t *testing.T) {
	// Force tau4 very low so every hit suppresses promotion.
	params := SingleThreadParams()
	params.Tau4 = ConfMin - 1
	m := NewMPPPB(64, 16, params)
	c := cache.New("llc", 64, 16, m)
	c.Access(demand(0x400, 0))
	c.Access(demand(0x400, 0))
	if m.NoPromotes != 1 {
		t.Fatalf("NoPromotes = %d, want 1", m.NoPromotes)
	}
	// And with tau4 very high, promotion always happens.
	params.Tau4 = ConfMax + 1
	m2 := NewMPPPB(64, 16, params)
	c2 := cache.New("llc", 64, 16, m2)
	c2.Access(demand(0x400, 0))
	c2.Access(demand(0x400, 0))
	if m2.NoPromotes != 0 {
		t.Fatalf("NoPromotes = %d, want 0", m2.NoPromotes)
	}
}

func TestMPPPBSRRIPModeRuns(t *testing.T) {
	params := MultiCoreParams()
	var accs []cache.Access
	for i := 0; i < 20000; i++ {
		a := demand(0x400+uint64(i%7)*4, uint64(i%4096)<<trace.BlockBits)
		a.Core = i % 4
		accs = append(accs, a)
	}
	llc, m := runLLC(t, params, accs)
	if llc.Stats.Accesses == 0 || m.TrainEvents == 0 {
		t.Fatal("SRRIP-mode MPPPB did not run/train")
	}
}

// TestPredictorConfidenceSideEffectFree checks that Predict changes
// nothing a later prediction reads: predicting twice gives one confidence.
// It does overwrite the index vector training reads;
// TestPredictBetweenVictimAndFill covers that.
func TestPredictorConfidenceSideEffectFree(t *testing.T) {
	m := NewMPPPB(64, 16, SingleThreadParams())
	c := cache.New("llc", 64, 16, m)
	// Train a bit.
	for i := 0; i < 3000; i++ {
		c.Access(demand(0x400, uint64(i)<<trace.BlockBits))
	}
	a := demand(0x777, 0x123456<<trace.BlockBits)
	set := c.SetIndex(a.Block())
	c1 := m.Predict(a, set, true)
	c2 := m.Predict(a, set, true)
	if c1 != c2 {
		t.Fatalf("Predict not idempotent: %d then %d", c1, c2)
	}
}

// probeBeforeFill is an MPPPB whose Fill first predicts probe(a), so a
// cache that calls Victim then Fill sees a prediction in between, as the
// -check oracle makes one.
type probeBeforeFill struct {
	*MPPPB
	probe func(a cache.Access) cache.Access
}

func (m probeBeforeFill) Fill(set, way int, a cache.Access) {
	m.Predict(m.probe(a), set, true)
	m.MPPPB.Fill(set, way, a)
}

// TestPredictBetweenVictimAndFill pins what a prediction between MPPPB's
// Victim and Fill may do. Fill trains from the index vector Victim left,
// and every prediction overwrites that vector. A Predict of the same
// access rewrites it with the same indices, so every weight ends as it
// would without the Predict. A Predict of another access does not, which
// shows the probe lands where the memo reads.
func TestPredictBetweenVictimAndFill(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		weights := func(probe func(cache.Access) cache.Access) []int8 {
			// Every set sampled, and no bypass: once a set is full, each
			// miss is a Victim and a Fill that reuses its prediction.
			params := SingleThreadParams()
			params.BypassEnabled = false
			m := NewMPPPB(64, 16, params)
			var pol cache.ReplacementPolicy = m
			if probe != nil {
				pol = probeBeforeFill{m, probe}
			}
			c := cache.New("llc", 64, 16, pol)
			// Blocks drawn from 1.4 times the cache's capacity: reuse
			// distances straddle the features' A, so training never stops.
			rng := xrand.New(3)
			for i := 0; i < 20000; i++ {
				b := uint64(rng.Intn(1434))
				c.Access(demand(0x400+b%7*4, b<<trace.BlockBits))
			}
			if m.Placements == [4]uint64{} || m.TrainEvents == 0 {
				t.Fatalf("no placed, trained miss: placements %v, %d train events", m.Placements, m.TrainEvents)
			}
			var w []int8
			m.Predictor().ForEachWeight(func(_, _ int, v int8) { w = append(w, v) })
			return w
		}
		plain := weights(nil)
		same := weights(func(a cache.Access) cache.Access { return a })
		if !slices.Equal(same, plain) {
			t.Fatal("predicting the filled access between Victim and Fill changed the trained weights")
		}
		other := weights(func(a cache.Access) cache.Access {
			a.PC += 0x100
			a.Addr += 1 << 20
			return a
		})
		if slices.Equal(other, plain) {
			t.Fatal("predicting another access between Victim and Fill left the weights as they were: the probe misses the memo")
		}
	})
}

func TestConfidenceClamped(t *testing.T) {
	if clampConf(1000) != ConfMax || clampConf(-1000) != ConfMin || clampConf(5) != 5 {
		t.Fatal("clampConf broken")
	}
}

func TestPredictorHistoryPerCore(t *testing.T) {
	f := Feature{Kind: KindPC, A: 5, B: 0, E: 20, W: 1}
	p := NewPredictor([]Feature{f}, 64, 2)
	// Push distinct histories per core.
	a0 := cache.Access{PC: 0x1000, Addr: 0, Type: trace.Load, Core: 0}
	a1 := cache.Access{PC: 0x2000, Addr: 0, Type: trace.Load, Core: 1}
	p.observe(&a0, 0, true, true)
	p.observe(&a1, 0, true, true)
	// The W=1 feature must read each core's own most recent PC through
	// predict; a core beyond the predictor's count folds onto core 0.
	for _, c := range []struct {
		core int
		last uint64
	}{{0, 0x1000}, {1, 0x2000}, {7, 0x1000}} {
		p.predict(&cache.Access{PC: 9, Core: c.core}, 0, false)
		in := Input{PC: 9}
		in.History[0], in.History[1] = 9, c.last
		if got, want := uint32(p.idx[0]), f.Index(&in); got != want {
			t.Fatalf("core %d: W=1 index %#x, want %#x (history %#x)", c.core, got, want, c.last)
		}
	}
}

// burstLastMiss predicts an access on a predictor whose features are
// exactly burst then lastmiss, and returns the two raw inputs the compiled
// kernels read.
func burstLastMiss(p *Predictor, a cache.Access, set int, insert bool) (burst, lastMiss bool) {
	p.predict(&a, set, insert)
	return p.idx[0] == 1, p.idx[1] == 1
}

func newBurstLastMissPredictor() *Predictor {
	return NewPredictor([]Feature{{Kind: KindBurst, A: 5}, {Kind: KindLastMiss, A: 5}}, 64, 1)
}

func TestPredictorBurstAndLastMissInputs(t *testing.T) {
	p := newBurstLastMissPredictor()
	a := demand(0x400, 5<<trace.BlockBits)
	set := 5
	// Initially: no last block, lastmiss false.
	if burst, lm := burstLastMiss(p, a, set, false); burst || lm {
		t.Fatalf("fresh set inputs: burst=%v lastmiss=%v", burst, lm)
	}
	// After a miss fill of the same block, a re-access is a burst and
	// lastmiss is set.
	p.observe(&a, set, true, true)
	if burst, lm := burstLastMiss(p, a, set, false); !burst || !lm {
		t.Fatalf("after miss: burst=%v lastmiss=%v, want true,true", burst, lm)
	}
	// Insertions are never bursts.
	if burst, _ := burstLastMiss(p, a, set, true); burst {
		t.Fatal("insertion flagged as burst")
	}
	// A different block is not a burst; a hit clears lastmiss.
	p.observe(&a, set, false, true)
	other := demand(0x404, 9<<trace.BlockBits)
	if burst, lm := burstLastMiss(p, other, set, false); burst || lm {
		t.Fatalf("other block: burst=%v lastmiss=%v", burst, lm)
	}
}

func TestBypassedBlockDoesNotBecomeBurstMRU(t *testing.T) {
	p := newBurstLastMissPredictor()
	a := demand(0x400, 5<<trace.BlockBits)
	p.observe(&a, 5, true, false) // bypassed: not resident
	burst, lm := burstLastMiss(p, a, 5, false)
	if burst {
		t.Fatal("bypassed block treated as MRU for burst")
	}
	if !lm {
		t.Fatal("bypass did not set lastmiss")
	}
}

func TestMPPPBParamsAreCopies(t *testing.T) {
	// Mutating a Params value after construction must not affect the
	// policy (guards against accidental aliasing of the Pi array etc.).
	params := SingleThreadParams()
	m := NewMPPPB(64, 16, params)
	params.Pi[0] = 0
	params.Tau0 = 12345
	if m.params.Pi[0] == 0 || m.params.Tau0 == 12345 {
		t.Fatal("policy aliases caller's Params")
	}
}
