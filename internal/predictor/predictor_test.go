package predictor

import (
	"testing"

	"mpppb/internal/belady"
	"mpppb/internal/cache"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

func load(pc, block uint64) cache.Access {
	return cache.Access{PC: pc, Addr: block << trace.BlockBits, Type: trace.Load}
}

// stream drives n one-shot blocks from a single PC through a cache.
func stream(c *cache.Cache, pc uint64, n int, start uint64) {
	for i := 0; i < n; i++ {
		c.Access(load(pc, start+uint64(i)))
	}
}

// loop drives `rounds` passes over `blocks` hot blocks from a single PC.
func loop(c *cache.Cache, pc uint64, blocks, rounds int) {
	for r := 0; r < rounds; r++ {
		for b := 0; b < blocks; b++ {
			c.Access(load(pc, uint64(b)))
		}
	}
}

func TestSDBPLearnsStreamingPC(t *testing.T) {
	s := NewSDBP(64, 16)
	c := cache.New("llc", 64, 16, s)
	stream(c, 0xdead, 60000, 0)
	if s.sum(0xdead) < sdbpThreshold {
		t.Fatalf("streaming PC sum = %d, below threshold %d", s.sum(0xdead), sdbpThreshold)
	}
	if c.Stats.Bypasses == 0 {
		t.Fatal("SDBP never bypassed a learned-dead stream")
	}
}

func TestSDBPKeepsReusedPCLive(t *testing.T) {
	s := NewSDBP(64, 16)
	c := cache.New("llc", 64, 16, s)
	loop(c, 0xbeef, 256, 300) // fits: 4 ways per set
	if s.sum(0xbeef) >= sdbpThreshold {
		t.Fatalf("hot-loop PC predicted dead (sum %d)", s.sum(0xbeef))
	}
	hitRate := float64(c.Stats.DemandHits) / float64(c.Stats.DemandAccesses)
	if hitRate < 0.9 {
		t.Fatalf("hot loop hit rate %.3f under SDBP", hitRate)
	}
}

func TestSDBPConfidenceRange(t *testing.T) {
	s := NewSDBP(64, 16)
	if got := s.Predict(load(0x1, 0), 0, true); got < 0 || got > sdbpTables*sdbpCtrMax {
		t.Fatalf("confidence %d out of [0,%d]", got, sdbpTables*sdbpCtrMax)
	}
}

func TestPerceptronLearnsStreamingPC(t *testing.T) {
	p := NewPerceptron(64, 16)
	c := cache.New("llc", 64, 16, p)
	stream(c, 0xdead, 60000, 0)
	y := p.Predict(load(0xdead, 1<<30), 0, true)
	if y <= 0 {
		t.Fatalf("streaming PC yout = %d, want positive (dead)", y)
	}
	if c.Stats.Bypasses == 0 {
		t.Fatal("perceptron never bypassed a dead stream")
	}
}

func TestPerceptronKeepsHotLoop(t *testing.T) {
	p := NewPerceptron(64, 16)
	c := cache.New("llc", 64, 16, p)
	loop(c, 0xbeef, 256, 300)
	hitRate := float64(c.Stats.DemandHits) / float64(c.Stats.DemandAccesses)
	if hitRate < 0.9 {
		t.Fatalf("hot loop hit rate %.3f under perceptron", hitRate)
	}
}

func TestPerceptronHistoryDistinguishesPaths(t *testing.T) {
	p := NewPerceptron(64, 16)
	// Same current PC, different history: indices must differ somewhere.
	a := load(0x400, 1)
	i1 := p.features(a)
	p.push(load(0x1111, 2))
	i2 := p.features(a)
	if i1 == i2 {
		t.Fatal("history change did not alter feature vector")
	}
}

func TestPerceptronPrefetchPCNotPushed(t *testing.T) {
	p := NewPerceptron(64, 16)
	before := p.hist[0]
	pf := cache.Access{PC: trace.PrefetchPC, Addr: 64, Type: trace.Prefetch}
	p.push(pf)
	if p.hist[0] != before {
		t.Fatal("prefetch fake PC entered history")
	}
}

func TestPerceptronWeightsSaturate(t *testing.T) {
	p := NewPerceptron(64, 16)
	for i := 0; i < 10000; i++ {
		p.bump(0, 5, true)
	}
	if w := p.tables[0][5]; w != percWeightMax {
		t.Fatalf("weight %d after saturating up", w)
	}
	for i := 0; i < 10000; i++ {
		p.bump(0, 5, false)
	}
	if w := p.tables[0][5]; w != percWeightMin {
		t.Fatalf("weight %d after saturating down", w)
	}
}

func TestHawkeyeFriendlyPCProtected(t *testing.T) {
	h := NewHawkeye(64, 16)
	c := cache.New("llc", 64, 16, h)
	loop(c, 0xbeef, 256, 300)
	if !h.friendly(0xbeef) {
		t.Fatalf("hot-loop PC classified averse (ctr %d)", h.ctr[hawkHash(0xbeef)])
	}
	hitRate := float64(c.Stats.DemandHits) / float64(c.Stats.DemandAccesses)
	if hitRate < 0.9 {
		t.Fatalf("hot loop hit rate %.3f under hawkeye", hitRate)
	}
}

func TestHawkeyeStreamingPCAverse(t *testing.T) {
	h := NewHawkeye(64, 16)
	c := cache.New("llc", 64, 16, h)
	stream(c, 0xdead, 120000, 0)
	if h.friendly(0xdead) {
		t.Fatalf("streaming PC classified friendly (ctr %d)", h.ctr[hawkHash(0xdead)])
	}
}

func TestHawkeyeAverseBlocksEvictFirst(t *testing.T) {
	h := NewHawkeye(4, 4)
	c := cache.New("llc", 4, 4, h)
	// Drive the averse counter down for PC 0xdead by hand.
	for i := 0; i < 16; i++ {
		h.train(0xdead, false)
		h.train(0xbeef, true)
	}
	// Fill set 0: three friendly, one averse.
	c.Access(load(0xbeef, 0))
	c.Access(load(0xbeef, 4))
	c.Access(load(0xdead, 8))
	c.Access(load(0xbeef, 12))
	// Next fill must evict the averse block 8.
	res := c.Access(load(0xbeef, 16))
	if !res.EvictedValid || res.EvictedAddr != 8 {
		t.Fatalf("evicted %+v, want averse block 8", res)
	}
}

func TestHawkeyeOptgenInterval(t *testing.T) {
	h := NewHawkeye(64, 4) // 4 ways
	s := &h.sampled[0]
	// Five overlapping intervals on a 4-way set: the fifth must not fit.
	for i := 0; i < 4; i++ {
		if !h.optgen(s, 1, 10) {
			t.Fatalf("interval %d did not fit in 4-way OPTgen", i)
		}
	}
	if h.optgen(s, 1, 10) {
		t.Fatal("fifth overlapping interval fit a 4-way OPTgen")
	}
	// A disjoint interval still fits.
	if !h.optgen(s, 20, 25) {
		t.Fatal("disjoint interval rejected")
	}
}

func TestHawkeyeOptgenWindowLimit(t *testing.T) {
	h := NewHawkeye(64, 16)
	s := &h.sampled[0]
	if h.optgen(s, 0, hawkWindow) {
		t.Fatal("interval spanning the whole window accepted")
	}
}

// TestHawkeyeOptgenEqualsMIN: within its limits, Hawkeye's sampled OPTgen
// is exact. On a single-set stream shorter than the OPTgen window, with
// no more distinct blocks than the sampler holds and no two sharing a
// 16-bit sampler tag, the reuses OPTgen labels hits are exactly the hits
// of Bélády's MIN with bypass in a one-set cache of the same
// associativity. The labels are read off the training counter of the
// stream's one PC, set to its initial value before every access: a
// reuse moves it up (OPTgen hit) or down (miss), a first touch leaves it.
func TestHawkeyeOptgenEqualsMIN(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	const pc = 0x400
	rng := xrand.New(2016)
	hawks := make(map[int]*Hawkeye)
	for trial := 0; trial < trials; trial++ {
		ways := 1 + rng.Intn(16)
		distinct := 1 + rng.Intn(hawkSamplerCap)
		blocks := make([]uint64, 0, distinct)
		tags := make(map[uint16]bool, distinct)
		for len(blocks) < distinct {
			b := rng.Uint64() >> 8
			if tag := uint16((b * 0x9e3779b97f4a7c15) >> 48); !tags[tag] {
				tags[tag] = true
				blocks = append(blocks, b)
			}
		}
		// Half the draws come from a hot subset about the set's size, so
		// reuses both fit and overflow the associativity.
		hot := min(distinct, 1+rng.Intn(2*ways))
		refs := make([]uint64, 1+rng.Intn(hawkWindow-1))
		for i := range refs {
			if rng.Bool() {
				refs[i] = blocks[rng.Intn(hot)]
			} else {
				refs[i] = blocks[rng.Intn(distinct)]
			}
		}

		h := hawks[ways]
		if h == nil {
			h = NewHawkeye(1, ways)
			hawks[ways] = h
		}
		h.sampled[0] = hawkSet{}
		ctr := &h.ctr[hawkHash(pc)]
		var optHits uint64
		for _, b := range refs {
			*ctr = hawkCtrInit
			h.samplerAccess(0, b, pc)
			if *ctr > hawkCtrInit {
				optHits++
			}
		}

		c := cache.New("min", 1, ways, belady.NewMIN(1, ways, refs))
		for _, b := range refs {
			c.Access(load(pc, b))
		}
		if c.Stats.DemandHits != optHits {
			t.Fatalf("trial %d (%d ways, %d accesses, %d blocks): OPTgen %d hits, MIN with bypass %d",
				trial, ways, len(refs), distinct, optHits, c.Stats.DemandHits)
		}
	}
}

func TestHawkeyeNoBypass(t *testing.T) {
	h := NewHawkeye(64, 16)
	c := cache.New("llc", 64, 16, h)
	stream(c, 0xdead, 60000, 0)
	if c.Stats.Bypasses != 0 {
		t.Fatal("hawkeye bypassed (it never should)")
	}
}

func TestAllPredictorsHandleWritebacks(t *testing.T) {
	for _, build := range []func() cache.ReplacementPolicy{
		func() cache.ReplacementPolicy { return NewSDBP(64, 16) },
		func() cache.ReplacementPolicy { return NewPerceptron(64, 16) },
		func() cache.ReplacementPolicy { return NewHawkeye(64, 16) },
	} {
		pol := build()
		c := cache.New("llc", 64, 16, pol)
		c.Access(load(0x1, 1))
		c.Access(cache.Access{Addr: 1 << trace.BlockBits, Type: trace.Writeback})
		c.Access(cache.Access{Addr: 999 << trace.BlockBits, Type: trace.Writeback})
		// Nothing to assert beyond "no panic" and the block still present.
		if !c.Contains(1) {
			t.Fatalf("%s dropped a block on writeback", pol.Name())
		}
	}
}

func TestPredictorNames(t *testing.T) {
	if NewSDBP(4, 4).Name() != "sdbp" ||
		NewPerceptron(4, 4).Name() != "perceptron" ||
		NewHawkeye(4, 4).Name() != "hawkeye" {
		t.Fatal("predictor names wrong")
	}
}
