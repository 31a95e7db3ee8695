package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpppb/internal/cache"
	"mpppb/internal/obs"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// refInput assembles the reference Input for an access from the
// predictor's own state, the way predict reads it: the requesting core's
// history ring (History[w] is the w-th most recent PC, History[0] the
// current one) and the set's burst/lastmiss metadata.
func refInput(p *Predictor, a cache.Access, set int, insert bool) Input {
	core := p.ring(a.Core)
	m := p.setMeta[set]
	in := Input{
		PC:       a.PC,
		Addr:     a.Addr,
		Insert:   insert,
		Burst:    !insert && m.flags&setHaveBlock != 0 && m.lastBlock == a.Block(),
		LastMiss: m.flags&setLastMiss != 0,
	}
	in.History[0] = a.PC
	for w := 1; w <= MaxW; w++ {
		in.History[w] = p.hist[core][(p.heads[core]+uint32(w)-1)&histRingMask]
	}
	return in
}

// refConf is the reference prediction for an Input: Feature.Index for
// every feature and a plain clamped sum of the indexed weights.
func refConf(p *Predictor, in *Input) (int, []uint16) {
	idx := make([]uint16, len(p.features))
	sum := 0
	for i, f := range p.features {
		ix := f.Index(in)
		idx[i] = uint16(ix)
		sum += int(p.tables[i][ix])
	}
	return clampConf(sum), idx
}

// gatherMismatch runs each gather kernel this CPU has (gatherKernels) on
// an arbitrary Input through the source and mix vectors — so it reaches
// inputs predict never builds, such as a burst that is also an insert —
// and compares the confidence and the index vector against refConf. It
// returns nil when they agree.
func gatherMismatch(p *Predictor, in *Input) error {
	srcs := &p.srcs
	srcs[srcPC] = in.PC
	srcs[srcAddr] = in.Addr
	srcs[srcBurst] = b2u(in.Burst)
	srcs[srcInsert] = b2u(in.Insert)
	srcs[srcLastMiss] = b2u(in.LastMiss)
	for j, off := range p.histOffs {
		srcs[srcHist+j] = in.History[off+1]
	}
	p.mixPC(in.PC)
	want, wantIdx := refConf(p, in)
	for name, gather := range gatherKernels() {
		clear(p.idx)
		if got := gather(p); got != want {
			return fmt.Errorf("%s gather confidence %d, reference %d (in=%+v)", name, got, want, *in)
		}
		for i, ix := range wantIdx {
			if p.idx[i] != ix {
				return fmt.Errorf("%s: %s kernel index %#x, reference %#x (in=%+v)", p.features[i], name, p.idx[i], ix, *in)
			}
		}
	}
	return nil
}

// randomInput builds an Input with every field drawn from the arguments,
// History[0] being the current PC as Feature.Index requires.
func randomInput(pc, addr, h uint64, ins, burst, lm bool) Input {
	in := Input{PC: pc, Addr: addr, Insert: ins, Burst: burst, LastMiss: lm}
	in.History[0] = pc
	for i := 1; i < len(in.History); i++ {
		in.History[i] = h*uint64(i+1) + uint64(i)
	}
	return in
}

// TestKernelMatchesReferenceIndex proves the compiled kernels compute
// exactly the indices the reference Feature.Index computes, and the
// confidence a plain sum over them gives, over random features (including
// offset features with out-of-range E, as search generates), random
// weights, and random inputs.
func TestKernelMatchesReferenceIndex(t *testing.T) {
	rng := xrand.New(7)
	if err := quick.Check(func(pc, addr, h uint64, ins, burst, lm bool) bool {
		in := randomInput(pc, addr, h, ins, burst, lm)
		p := NewPredictor(randomFeatureSet(rng, 40), 1, 1)
		scrambleState(p, rng)
		if err := gatherMismatch(p, &in); err != nil {
			t.Log(err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelMatchesReferenceOnPaperSets runs the same equivalence over the
// shipped feature sets with a fixed input, so a regression names the
// exact feature.
func TestKernelMatchesReferenceOnPaperSets(t *testing.T) {
	in := Input{PC: 0x402468, Addr: 0xdeadbeef, Insert: true, LastMiss: true}
	in.History[0] = in.PC
	for i := 1; i < len(in.History); i++ {
		in.History[i] = 0x400000 + uint64(i)*0x1234
	}
	rng := xrand.New(3)
	for name, set := range map[string][]Feature{
		"1a":    SingleThreadSetA(),
		"1b":    SingleThreadSetB(),
		"2":     MultiProgrammedSet(),
		"suite": SuiteSearchedSet(),
	} {
		p := NewPredictor(set, 1, 1)
		scrambleState(p, rng)
		if err := gatherMismatch(p, &in); err != nil {
			t.Errorf("set %s: %v", name, err)
		}
	}
}

// TestNewPredictorRejectsOversizedSet pins the MaxFeatures limit at
// construction: one feature past it panics instead of overrunning the
// sampler's per-position masks.
func TestNewPredictorRejectsOversizedSet(t *testing.T) {
	feats := make([]Feature, MaxFeatures+1)
	for i := range feats {
		feats[i] = Feature{Kind: KindBias, A: 1}
	}
	NewPredictor(feats[:MaxFeatures], 1, 1) // at the limit: accepted
	defer func() {
		if recover() == nil {
			t.Fatal("NewPredictor accepted MaxFeatures+1 features")
		}
	}()
	NewPredictor(feats, 1, 1)
}

// TestFold8MatchesFoldTo pins the unrolled 8-bit fold against the generic
// loop.
func TestFold8MatchesFoldTo(t *testing.T) {
	cases := []uint64{0, 1, 0xab, 0xfeedfeedfeedfeed >> 2, ^uint64(0), 1 << 63, 0x123456789abcdef0}
	for _, v := range cases {
		if fold8(v) != foldTo(v, 8) {
			t.Errorf("fold8(%#x) = %#x, foldTo = %#x", v, fold8(v), foldTo(v, 8))
		}
	}
	if err := quick.Check(func(v uint64) bool { return fold8(v) == foldTo(v, 8) }, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAccessDoesNotAllocate guards the zero-allocation property
// of the MPPPB LLC hot path: once the structures are built, simulating an
// access must not touch the heap. It covers every shipped
// parameterisation: single-thread on a 2048-set LLC, multi-core on an
// 8192-set LLC with the requesting core cycling through four, and each of
// the two with the adaptive threshold duel, each under both gather
// kernels.
func TestSteadyStateAccessDoesNotAllocate(t *testing.T) {
	adaptive := func(p Params) Params {
		p.Duel = &DuelConfig{}
		return p
	}
	for _, c := range []struct {
		name   string
		sets   int
		cores  int
		params Params
	}{
		{"single-thread", 2048, 1, SingleThreadParams()},
		{"multi-core", 8192, 4, MultiCoreParams()},
		{"single-thread-adaptive", 2048, 1, adaptive(SingleThreadParams())},
		{"multi-core-adaptive", 8192, 4, adaptive(MultiCoreParams())},
	} {
		t.Run(c.name, func(t *testing.T) {
			forEachKernel(t, func(t *testing.T) {
				m := NewMPPPB(c.sets, 16, c.params)
				llc := cache.New("llc", c.sets, 16, m)
				step := func(i int) {
					llc.Access(cache.Access{
						PC:   0x400000 + uint64(i%13)*4,
						Addr: uint64(i)*88 + uint64(i%7)<<14,
						Type: trace.Load,
						Core: i % c.cores,
					})
				}
				for i := 0; i < 50000; i++ {
					step(i)
				}
				n := 50000
				if avg := testing.AllocsPerRun(2000, func() {
					step(n)
					n++
				}); avg != 0 {
					t.Fatalf("steady-state LLC access allocates %v times per access", avg)
				}
			})
		})
	}
}

// TestSteadyStateAccessDoesNotAllocateWithObs repeats the steady-state
// guard with observability in its default deployment: metrics registered
// in the process-wide registry and updated every step, with no -listen
// server attached. The obs layer promises updates are plain atomic ops, so
// instrumentation must not cost the hot path its zero-alloc property.
func TestSteadyStateAccessDoesNotAllocateWithObs(t *testing.T) {
	m := NewMPPPB(2048, 16, SingleThreadParams())
	c := cache.New("llc", 2048, 16, m)
	ctr := obs.Default().Counter("mpppb_core_test_accesses_total", "zero-alloc guard probe")
	hist := obs.Default().Histogram("mpppb_core_test_seconds", "zero-alloc guard probe", obs.LatencyBuckets)
	var disabled *obs.Counter
	step := func(i int) {
		c.Access(cache.Access{
			PC:   0x400000 + uint64(i%13)*4,
			Addr: uint64(i)*88 + uint64(i%7)<<14,
			Type: trace.Load,
		})
		ctr.Inc()
		hist.Observe(0.004)
		disabled.Inc()
	}
	for i := 0; i < 50000; i++ {
		step(i)
	}
	n := 50000
	if avg := testing.AllocsPerRun(2000, func() {
		step(n)
		n++
	}); avg != 0 {
		t.Fatalf("instrumented steady-state LLC access allocates %v times per access", avg)
	}
}
