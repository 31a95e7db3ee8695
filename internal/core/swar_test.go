package core

import (
	"testing"

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

// TestComputeIndicesMatchesScalarSum pins the SWAR hot path — predict's
// source vector, the branch-light fastKernel walk, the biased-byte lane
// gather, and the sumLanes reduction — against the reference: Feature.Index
// and a plain sum on the Input assembled from the predictor's history ring
// and set metadata. Random feature sets (one at MaxFeatures, filling every
// lane word), random weight tables, and random accesses must give the
// same clamped confidence and the same per-feature index vector, with and
// without the index store.
func TestComputeIndicesMatchesScalarSum(t *testing.T) {
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

			noIdxConf := p.predict(a, set, insert, false)
			gotConf := p.predict(a, set, insert, true)
			if noIdxConf != gotConf {
				t.Fatalf("trial %d access %d: needIdx=false confidence %d != needIdx=true %d",
					trial, i, noIdxConf, gotConf)
			}
			in := refInput(p, a, set, insert)
			wantConf, wantIdx := refConf(p, &in)
			if gotConf != wantConf {
				t.Fatalf("trial %d access %d: SWAR confidence %d != reference %d (features %v)",
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
}

// TestComputeIndicesMatchesScalarOnPaperSets runs the same equivalence on
// the published feature sets at saturated weights, where a sign-handling
// bug in the biased-byte reduction would surface first.
func TestComputeIndicesMatchesScalarOnPaperSets(t *testing.T) {
	for name, set := range map[string][]Feature{
		"1a": SingleThreadSetA(),
		"1b": SingleThreadSetB(),
		"2":  MultiProgrammedSet(),
	} {
		for _, w := range []int8{WeightMin, WeightMax} {
			p := NewPredictor(set, 64, 1)
			for i := range p.weights {
				p.weights[i] = w
			}
			a := cache.Access{PC: 0x402468, Addr: 0xdeadbeef, Type: trace.Load}
			got := p.predict(a, 3, true, true)
			in := refInput(p, a, 3, true)
			if want, _ := refConf(p, &in); got != want {
				t.Errorf("set %s, weights %d: SWAR %d != reference %d", name, w, got, want)
			}
		}
	}
}

// TestSumLanesExhaustsBias sweeps sumLanes over the byte-value extremes:
// every lane at 0 (weight -128 biased... the minimum gatherable byte is
// WeightMin+128) and every lane at the maximum, across all word counts.
func TestSumLanesExhaustsBias(t *testing.T) {
	wMin, wMax := int8(WeightMin), int8(WeightMax)
	for words := 1; words <= laneWords; words++ {
		for _, b := range []uint8{0, uint8(wMin) ^ weightBias, uint8(wMax) ^ weightBias, 255} {
			var lanes [laneWords]uint64
			word := uint64(0)
			for i := 0; i < 8; i++ {
				word = word<<8 | uint64(b)
			}
			for w := 0; w < words; w++ {
				lanes[w] = word
			}
			if got, want := sumLanes(&lanes, words), words*8*int(b); got != want {
				t.Fatalf("sumLanes(%d words of %#x) = %d, want %d", words, b, got, want)
			}
		}
	}
}

// TestFastKernelFoldClassification pins the compile-time fold dispatch:
// a foldNone kernel must imply the raw value always fits its table.
func TestFastKernelFoldClassification(t *testing.T) {
	rng := xrand.New(13)
	feats := randomFeatureSet(rng, 200)
	ks, _ := compileFastKernels(feats)
	for i, k := range ks {
		switch k.fold {
		case foldNone:
			if k.xmask != 0 || k.wmask>>k.bits != 0 {
				t.Errorf("kernel %d (%s): classified foldNone but raw can exceed %d bits", i, feats[i], k.bits)
			}
		case fold88:
			if k.bits != 8 {
				t.Errorf("kernel %d (%s): classified fold88 with %d index bits", i, feats[i], k.bits)
			}
		}
	}
}
