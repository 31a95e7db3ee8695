package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpppb/internal/xrand"
)

// requireVectorGather skips a test of the vector gather on a CPU that
// cannot run it, saying why.
func requireVectorGather(t testing.TB) {
	t.Helper()
	if !cpuHasVectorGather {
		t.Skip("the vector gather needs amd64 with AVX-512 F, DQ, BW and VL and the ZMM state enabled; this CPU runs only the scalar gather")
	}
}

// setVectorGather makes NewPredictor give the predictors built until the
// test ends the vector gather (true) or the scalar one (false).
func setVectorGather(t testing.TB, vector bool) {
	t.Helper()
	old := useVectorGather
	useVectorGather = vector
	t.Cleanup(func() { useVectorGather = old })
}

// forEachKernel runs f as one subtest per gather kernel, "scalar" and
// "vector", with every predictor f builds running that kernel. The vector
// subtest skips on a CPU without the vector gather.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, vector := range []bool{false, true} {
		name := "scalar"
		if vector {
			name = "vector"
		}
		t.Run(name, func(t *testing.T) {
			if vector {
				requireVectorGather(t)
			}
			setVectorGather(t, vector)
			f(t)
		})
	}
}

// gatherKernels returns the gather kernels this CPU runs, by name: the
// scalar gather, and the vector gather where the CPU has one.
func gatherKernels() map[string]func(*Predictor) int {
	ks := map[string]func(*Predictor) int{"scalar": (*Predictor).gather}
	if cpuHasVectorGather {
		ks["vector"] = (*Predictor).gatherVector
	}
	return ks
}

// randomSources fills the source and mix vectors as predict would, from
// random draws: a PC, an address and history PCs of random bit length,
// the three boolean sources 0 or 1, and the mix of a random PC. Slot 0,
// the bias source, stays 0.
func randomSources(p *Predictor, rng *xrand.RNG) {
	word := func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }
	srcs := &p.srcs
	srcs[srcPC] = word()
	srcs[srcAddr] = word()
	srcs[srcBurst] = uint64(rng.Intn(2))
	srcs[srcInsert] = uint64(rng.Intn(2))
	srcs[srcLastMiss] = uint64(rng.Intn(2))
	for j := range p.histOffs {
		srcs[srcHist+j] = word()
	}
	p.mixPC(word())
}

// namedSet is a feature set under the name a test or benchmark reports.
type namedSet struct {
	name string
	set  []Feature
}

// shippedSets returns the four shipped feature sets.
func shippedSets() []namedSet {
	return []namedSet{
		{"1a", SingleThreadSetA()},
		{"1b", SingleThreadSetB()},
		{"2", MultiProgrammedSet()},
		{"suite", SuiteSearchedSet()},
	}
}

// vectorTestSets returns the feature sets the vector gather is checked
// on: the shipped sets, each kind's BenchmarkPredict set with X off and
// on, random sets that fill part of a row, all of one, one and a lane,
// and MaxFeatures, and a set whose last table is a single bias weight,
// so the last weight read is the array's last byte.
func vectorTestSets(rng *xrand.RNG) []namedSet {
	sets := shippedSets()
	for kind := KindPC; kind <= KindOffset; kind++ {
		sets = append(sets,
			namedSet{kind.String() + "-x0", kindBenchSet(kind, false)},
			namedSet{kind.String() + "-x1", kindBenchSet(kind, true)})
	}
	for _, n := range []int{1, 7, 8, 9, MaxFeatures} {
		sets = append(sets, namedSet{fmt.Sprintf("random-%d", n), randomFeatureSet(rng, n)})
	}
	biasLast := append(randomFeatureSet(rng, 10), Feature{Kind: KindBias, A: 4})
	return append(sets, namedSet{"bias-last", biasLast})
}

// TestVectorGatherMatchesScalar requires the vector gather to leave the
// scalar gather's confidence and every one of its indices, over random
// sources, PC mixes and weights across the full 6-bit range, on every
// set vectorTestSets names. The index vector gets spare capacity holding
// a sentinel, which the vector gather's masked store must not touch, and
// the weight array's slack holds random bytes, which its dword gather
// reads and must drop.
func TestVectorGatherMatchesScalar(t *testing.T) {
	requireVectorGather(t)
	rng := xrand.New(29)
	draws := 20000
	if testing.Short() {
		draws = 2000
	}
	for _, s := range vectorTestSets(rng) {
		p := NewPredictor(s.set, 1, 1)
		slack := p.weights[len(p.weights):cap(p.weights)]
		if len(slack) < 3 {
			t.Fatalf("set %s: weight array has %d bytes of slack, want 3", s.name, len(slack))
		}
		n := len(s.set)
		const sentinel = 0xbeef
		p.idx = make([]uint16, n, n+rowLanes)
		spare := p.idx[n:cap(p.idx)]
		for i := range spare {
			spare[i] = sentinel
		}
		scalarIdx := make([]uint16, n)
		for d := 0; d < draws; d++ {
			if d%1000 == 0 {
				scrambleState(p, rng)
				for i := range slack {
					slack[i] = int8(rng.Uint64())
				}
			}
			randomSources(p, rng)
			want := p.gather()
			copy(scalarIdx, p.idx)
			clear(p.idx)
			if got := p.gatherVector(); got != want {
				t.Fatalf("set %s draw %d: vector confidence %d, scalar %d", s.name, d, got, want)
			}
			for i, ix := range scalarIdx {
				if p.idx[i] != ix {
					t.Fatalf("set %s draw %d: %s: vector index %#x, scalar %#x", s.name, d, s.set[i], p.idx[i], ix)
				}
			}
			for i, v := range spare {
				if v != sentinel {
					t.Fatalf("set %s draw %d: vector gather wrote %#x to idx[%d], past the %d features", s.name, d, v, n+i, n)
				}
			}
		}
	}
}

// TestMixPCMatchesFoldTo pins mixPC's fixed folds against the reference
// foldTo at the two widths a mixed kernel reads, 6 and 8, for random PCs,
// 0 and all ones.
func TestMixPCMatchesFoldTo(t *testing.T) {
	p := NewPredictor([]Feature{{Kind: KindBias, A: 1, X: true}}, 1, 1)
	check := func(pc uint64) bool {
		p.mixPC(pc)
		return p.mix[6] == foldTo(pc>>2, 6) && p.mix[8] == foldTo(pc>>2, 8) &&
			fold6(pc) == foldTo(pc, 6)
	}
	for _, pc := range []uint64{0, ^uint64(0)} {
		if !check(pc) {
			t.Errorf("pc %#x: mix[6] %#x, mix[8] %#x, fold6 %#x; foldTo gives %#x, %#x, %#x",
				pc, p.mix[6], p.mix[8], fold6(pc), foldTo(pc>>2, 6), foldTo(pc>>2, 8), foldTo(pc, 6))
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
