package core

import (
	"testing"

	"mpppb/internal/xrand"
)

// FuzzPredictorKernel fuzzes the compiled-kernel/reference-index
// equivalence: for any input and any batch of randomly constructed (but
// valid) features, the compiled kernels, scalar and (where the CPU has it)
// vector, must compute exactly the table indices the reference
// Feature.Index computes, and the confidence a plain sum over them gives.
// featSeed drives the feature and weight
// generator, so the corpus explores the feature space as well as the
// input space.
func FuzzPredictorKernel(f *testing.F) {
	f.Add(uint64(0x402468), uint64(0xdeadbeef), uint64(0x1234), uint64(7), true, false, true)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(1), false, false, false)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), uint64(42), true, true, true)
	f.Add(uint64(1)<<63, uint64(0x7f)<<40, uint64(3), uint64(99), false, true, false)
	f.Fuzz(func(t *testing.T, pc, addr, h, featSeed uint64, ins, burst, lm bool) {
		in := randomInput(pc, addr, h, ins, burst, lm)
		rng := xrand.New(featSeed)
		p := NewPredictor(randomFeatureSet(rng, DefaultFeatureCount), 1, 1)
		scrambleState(p, rng)
		if err := gatherMismatch(p, &in); err != nil {
			t.Fatal(err)
		}
	})
}
