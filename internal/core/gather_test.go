package core

import (
	"testing"
	"testing/quick"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// randomFeatureSet builds a valid feature set of the given size mixing all
// kinds, the way search explores them.
func randomFeatureSet(rng *xrand.RNG, n int) []Feature {
	feats := make([]Feature, n)
	for i := range feats {
		f := Feature{
			Kind: Kind(rng.Intn(7)),
			A:    1 + rng.Intn(MaxA),
			W:    rng.Intn(MaxW + 1),
			X:    rng.Bool(),
		}
		switch f.Kind {
		case KindOffset:
			f.B = rng.Intn(OffsetBits)
			f.E = f.B + rng.Intn(OffsetBits-f.B+2)
		case KindPC, KindAddress:
			f.B = rng.Intn(40)
			f.E = f.B + rng.Intn(24)
		}
		feats[i] = f
	}
	return feats
}

// scrambleState randomizes every predictor input source: weights across
// the full 6-bit range, history rings, ring heads, and per-set metadata.
func scrambleState(p *Predictor, rng *xrand.RNG) {
	for i := range p.weights {
		p.weights[i] = int8(WeightMin + rng.Intn(WeightMax-WeightMin+1))
	}
	for c := range p.hist {
		for i := range p.hist[c] {
			p.hist[c][i] = rng.Uint64()
		}
		p.heads[c] = uint32(rng.Intn(histRingLen))
	}
	for s := range p.setMeta {
		p.setMeta[s] = setMeta{lastBlock: rng.Uint64() >> 40, flags: uint8(rng.Intn(4))}
	}
}

// TestComputeIndicesMatchesScalarSum pins the hot path — predict's source
// vector, the per-prediction PC mix, and the compiled kernel gather —
// against the reference: Feature.Index and a plain sum on the Input built from
// the predictor's history ring and set metadata. Random feature sets (one
// at MaxFeatures), random weight tables, and random accesses must give the
// same clamped confidence and the same per-feature index vector, under
// each gather kernel.
func TestComputeIndicesMatchesScalarSum(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := xrand.New(11)
		for trial := 0; trial < 25; trial++ {
			nf := 1 + rng.Intn(20)
			if trial == 0 {
				nf = MaxFeatures
			}
			feats := randomFeatureSet(rng, nf)
			p := NewPredictor(feats, 64, 2)
			scrambleState(p, rng)

			for i := 0; i < 300; i++ {
				a := cache.Access{
					PC:   rng.Uint64() >> uint(rng.Intn(40)),
					Addr: rng.Uint64() >> uint(rng.Intn(40)),
					Core: rng.Intn(2),
					Type: trace.Load,
				}
				set := rng.Intn(64)
				insert := rng.Bool()

				gotConf := p.predict(&a, set, insert)
				in := refInput(p, a, set, insert)
				wantConf, wantIdx := refConf(p, &in)
				if gotConf != wantConf {
					t.Fatalf("trial %d access %d: kernel confidence %d != reference %d (features %v)",
						trial, i, gotConf, wantConf, feats)
				}
				for j, ix := range wantIdx {
					if p.idx[j] != ix {
						t.Fatalf("trial %d access %d: idx[%d] = %d, reference %d (feature %s)",
							trial, i, j, p.idx[j], ix, feats[j])
					}
				}
			}
		}
	})
}

// TestComputeIndicesMatchesScalarOnPaperSets runs the same equivalence on
// the shipped feature sets at saturated weights, where the sum reaches the
// confidence clamp, under each gather kernel.
func TestComputeIndicesMatchesScalarOnPaperSets(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for name, set := range map[string][]Feature{
			"1a":    SingleThreadSetA(),
			"1b":    SingleThreadSetB(),
			"2":     MultiProgrammedSet(),
			"suite": SuiteSearchedSet(),
		} {
			for _, w := range []int8{WeightMin, WeightMax} {
				p := NewPredictor(set, 64, 1)
				for i := range p.weights {
					p.weights[i] = w
				}
				a := cache.Access{PC: 0x402468, Addr: 0xdeadbeef, Type: trace.Load}
				got := p.predict(&a, 3, true)
				in := refInput(p, a, 3, true)
				if want, _ := refConf(p, &in); got != want {
					t.Errorf("set %s, weights %d: kernel %d != reference %d", name, w, got, want)
				}
			}
		}
	})
}

// TestFoldToIsLinear pins the identity the hoisted PC mix rests on:
// xor-folding distributes over xor, so folding the mix once per width and
// xoring it into the folded range equals folding the mixed range.
func TestFoldToIsLinear(t *testing.T) {
	for n := 0; n <= 8; n++ {
		if err := quick.Check(func(a, b uint64) bool {
			return foldTo(a^b, n) == foldTo(a, n)^foldTo(b, n)
		}, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestFastKernelFoldClassification pins the compile step's decisions over
// random features: a lane that does not fold reads a range that fits its
// table, a lane that folds has an 8-bit index (fold8's width), and a mixed
// lane reads the mix slot of its own index width, 6 or 8, both of which
// mixPC fills, while an unmixed one reads slot 0, which predict never
// writes. No slot may be wrapped by the vector masks. Valid lanes are
// exactly the features, and the last row's spare lanes are all zero.
func TestFastKernelFoldClassification(t *testing.T) {
	rng := xrand.New(13)
	feats := randomFeatureSet(rng, 203)
	rows, _ := compileRows(feats)
	if want := (len(feats) + rowLanes - 1) / rowLanes; len(rows) != want {
		t.Fatalf("%d features compiled to %d rows, want %d", len(feats), len(rows), want)
	}
	for i, f := range feats {
		r, j := &rows[i/rowLanes], i%rowLanes
		bits := f.IndexBits()
		fold := r.fold>>j&1 != 0
		if !fold && r.wmask[j]>>bits != 0 {
			t.Errorf("kernel %d (%s): does not fold but its range exceeds %d bits", i, f, bits)
		}
		if fold && bits != 8 {
			t.Errorf("kernel %d (%s): folds with %d index bits", i, f, bits)
		}
		switch {
		case f.X && (int(r.mix[j]) != bits || (bits != 6 && bits != 8)):
			t.Errorf("kernel %d (%s): mix slot %d, want its %d index bits, 6 or 8", i, f, r.mix[j], bits)
		case !f.X && r.mix[j] != 0:
			t.Errorf("kernel %d (%s): unmixed but reads mix slot %d", i, f, r.mix[j])
		}
		if r.src[j] >= srcLen || r.mix[j] >= mixLen {
			t.Errorf("kernel %d (%s): slots src %d, mix %d wrap the vectors", i, f, r.src[j], r.mix[j])
		}
		if r.valid>>j&1 == 0 {
			t.Errorf("kernel %d (%s): lane not marked valid", i, f)
		}
	}
	last := &rows[len(rows)-1]
	for j := len(feats) % rowLanes; j < rowLanes; j++ {
		if last.valid>>j&1 != 0 || last.fold>>j&1 != 0 || last.src[j] != 0 || last.mix[j] != 0 ||
			last.shift[j] != 0 || last.wmask[j] != 0 || last.base[j] != 0 {
			t.Errorf("spare lane %d of the last row is not zero and invalid", j)
		}
	}
}
