package core

// Metamorphic properties of the predictor. The bias feature is defined to
// ignore the address entirely (Section 3.2 lists it as a constant input,
// optionally hashed with the PC), so any transformation of the address
// stream that leaves PCs, set indices, and hit/miss outcomes fixed must
// leave a bias-only predictor's behavior bit-identical.

import (
	"testing"
	"testing/quick"

	"mpppb/internal/cache"
	"mpppb/internal/xrand"
)

// biasOnlySet is a feature set that reads nothing address-derived: a plain
// bias weight and a PC-hashed bias table.
func biasOnlySet() []Feature {
	return []Feature{
		{Kind: KindBias, A: 16},
		{Kind: KindBias, A: 8, X: true},
	}
}

// TestBiasIndexAddressInvariance: the bias feature's table index is the
// same for any two addresses, with and without PC hashing, for arbitrary
// input flags.
func TestBiasIndexAddressInvariance(t *testing.T) {
	for _, x := range []bool{false, true} {
		f := Feature{Kind: KindBias, A: 16, X: x}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		err := quick.Check(func(pc, addr1, addr2 uint64, ins, burst, lm bool) bool {
			in1 := Input{PC: pc, Addr: addr1, Insert: ins, Burst: burst, LastMiss: lm}
			in2 := in1
			in2.Addr = addr2
			return f.Index(&in1) == f.Index(&in2)
		}, nil)
		if err != nil {
			t.Errorf("X=%v: %v", x, err)
		}
	}
}

// TestPredictorBiasOnlyAddressPermutationInvariance drives two predictors
// with bias-only feature sets through the same access sequence, except the
// second sees every address mapped through a bijection of the address
// space. Predictions, trained weights, and history state must stay in
// lockstep throughout.
func TestPredictorBiasOnlyAddressPermutationInvariance(t *testing.T) {
	const sets = 64
	p1 := NewPredictor(biasOnlySet(), sets, 2)
	p2 := NewPredictor(biasOnlySet(), sets, 2)
	// An easily-inverted bijection on addresses: xor with a constant, then
	// rotate. Any bijection works — nothing bias-visible reads the address.
	perm := func(a uint64) uint64 {
		a ^= 0x9e3779b97f4a7c15
		return a<<23 | a>>41
	}

	rng := xrand.New(11)
	for i := 0; i < 20_000; i++ {
		a := cache.Access{
			PC:   0x400000 + uint64(rng.Intn(256))*4,
			Addr: rng.Uint64(),
			Core: rng.Intn(2),
		}
		b := a
		b.Addr = perm(a.Addr)
		set := rng.Intn(sets)
		insert := rng.Bool()

		c1 := p1.Confidence(a, set, insert)
		c2 := p2.Confidence(b, set, insert)
		if c1 != c2 {
			t.Fatalf("access %d: confidence diverged under address permutation: %d vs %d", i, c1, c2)
		}
		// Train both on the same (arbitrary) outcome, mimicking sampler
		// hits and demotions; Confidence left each predictor's idx scratch
		// holding this access's indices.
		if rng.Intn(3) == 0 {
			up := rng.Bool()
			for fi := range p1.features {
				p1.bump(fi, p1.idx[fi], up)
				p2.bump(fi, p2.idx[fi], up)
			}
		}
		miss := rng.Bool()
		p1.observe(&a, set, miss, true)
		p2.observe(&b, set, miss, true)
	}

	var w1 []int8
	p1.ForEachWeight(func(_, _ int, w int8) { w1 = append(w1, w) })
	i := 0
	p2.ForEachWeight(func(feature, index int, w int8) {
		if w1[i] != w {
			t.Errorf("weight table diverged at feature %d index %d: %d vs %d", feature, index, w1[i], w)
		}
		i++
	})
	if i != len(w1) {
		t.Fatalf("weight table sizes differ: %d vs %d", len(w1), i)
	}
}
