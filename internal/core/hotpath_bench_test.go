package core

import (
	"fmt"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/xrand"
)

// Hot-path microbenchmarks for the per-access predictor work. These are the
// numbers docs/PERFORMANCE.md tracks; scripts/bench.sh runs
// BenchmarkPredictorConfidence and BenchmarkLLCAccess and emits a
// BENCH_<n>.json trajectory point.

// benchAccess produces a deterministic but irregular access stream: a few
// static PCs walking several address regions, which exercises the pc,
// address, offset and bias features without degenerating into one index.
func benchAccess(i int) cache.Access {
	pc := uint64(0x400000 + (i%13)*4)
	addr := uint64(i)*88 + uint64(i%7)<<14
	return cache.Access{PC: pc, Addr: addr, Core: 0}
}

// BenchmarkPredictorConfidence measures one predict (+ per-core history
// update) through the full single-thread feature set — the work MPPPB does
// on every LLC access before any training.
func BenchmarkPredictorConfidence(b *testing.B) {
	p := NewPredictor(SingleThreadSetB(), 2048, 1)
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		a := benchAccess(i)
		set := int(a.Block() & 2047)
		sum += p.Confidence(a, set, i%3 == 0)
		p.observe(&a, set, i%3 == 0, true)
	}
	if sum == 1<<62 {
		b.Fatal("impossible") // keep sum live
	}
}

// kindBenchSet returns DefaultFeatureCount features of one kind, with the
// X parameter as given. The pc and address features widen their bit range
// from 8 to 38 bits, so all but the first fold, and the pc features read
// sixteen distinct history depths; the offset features cover every
// in-range start bit, some with E past the block offset.
func kindBenchSet(kind Kind, x bool) []Feature {
	fs := make([]Feature, DefaultFeatureCount)
	for i := range fs {
		f := Feature{Kind: kind, A: 1 + i, X: x}
		switch kind {
		case KindPC:
			f.B, f.E, f.W = i, 3*i+7, i
		case KindAddress:
			f.B, f.E = i, 3*i+7
		case KindOffset:
			f.B = i % OffsetBits
			f.E = f.B + i%4
		}
		fs[i] = f
	}
	return fs
}

// BenchmarkPredict measures one prediction plus observe, per feature kind
// (sixteen features of the kind, X off and on) and per shipped feature
// set, over a fixed access stream on a 2048-set predictor with scrambled
// weights and history. One op is one prediction. The kind sets run the
// gather kernel this CPU picks; each shipped set runs the vector and the
// scalar kernel as sub-benchmarks of its own, the vector one skipping on
// a CPU without it.
func BenchmarkPredict(b *testing.B) {
	run := func(b *testing.B, set []Feature) {
		p := NewPredictor(set, 2048, 1)
		scrambleState(p, xrand.New(5))
		b.ReportAllocs()
		b.ResetTimer()
		sum := 0
		for i := 0; i < b.N; i++ {
			a := benchAccess(i)
			set := int(a.Block() & 2047)
			insert := i%3 == 0
			sum += p.predict(&a, set, insert)
			p.observe(&a, set, insert, true)
		}
		if sum == 1<<62 {
			b.Fatal("impossible") // keep sum live
		}
	}
	for kind := KindPC; kind <= KindOffset; kind++ {
		for _, x := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s-x%d", kind, b2u(x)), func(b *testing.B) { run(b, kindBenchSet(kind, x)) })
		}
	}
	for _, s := range shippedSets() {
		b.Run("set-"+s.name, func(b *testing.B) {
			for _, vector := range []bool{true, false} {
				name := "scalar"
				if vector {
					name = "vector"
				}
				b.Run(name, func(b *testing.B) {
					if vector {
						requireVectorGather(b)
					}
					setVectorGather(b, vector)
					run(b, s.set)
				})
			}
		})
	}
}

// BenchmarkLLCAccess measures a full LLC lookup under MPPPB — probe, policy
// callbacks, prediction, sampler training on sampled sets — on a stream
// with a realistic hit/miss mix.
func BenchmarkLLCAccess(b *testing.B) {
	m := NewMPPPB(2048, 16, SingleThreadParams())
	c := cache.New("llc", 2048, 16, m)
	// Warm the cache so steady state has hits, misses, and evictions.
	for i := 0; i < 200_000; i++ {
		c.Access(benchAccess(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(benchAccess(i))
	}
}
