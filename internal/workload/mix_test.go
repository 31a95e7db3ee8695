package workload

import (
	"testing"

	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

func TestScriptsChooseRespectsWeights(t *testing.T) {
	// Statistical property: empirical script frequencies converge to the
	// declared weights. The draw stream is seeded-deterministic, so the
	// chi-square bound is a fixed-outcome regression check, not a flaky
	// sample: chi2 over k-1=3 degrees of freedom at 1e-4 significance is
	// ~21; a correct sampler lands far below it at this n.
	s := NewScripts(
		Script{Name: "a", Weight: 50, Tx: 1, Make: nil},
		Script{Name: "b", Weight: 30, Tx: 1, Make: nil},
		Script{Name: "c", Weight: 15, Tx: 1, Make: nil},
		Script{Name: "d", Weight: 5, Tx: 1, Make: nil},
	)
	rng := xrand.New(42)
	const n = 200000
	counts := make([]float64, 4)
	for i := 0; i < n; i++ {
		counts[s.Choose(rng)]++
	}
	chi2 := 0.0
	for i, w := range s.Weights() {
		expected := float64(n) * float64(w) / float64(100)
		d := counts[i] - expected
		chi2 += d * d / expected
	}
	if chi2 > 21 {
		t.Fatalf("chi-square %.2f exceeds bound 21 (counts %v)", chi2, counts)
	}
}

func TestScriptsChooseCoversAllAndOnlyScripts(t *testing.T) {
	s := NewScripts(
		Script{Name: "a", Weight: 1, Tx: 1},
		Script{Name: "b", Weight: 1000, Tx: 1},
		Script{Name: "c", Weight: 1, Tx: 1},
	)
	rng := xrand.New(7)
	seen := make([]bool, 3)
	for i := 0; i < 100000; i++ {
		k := s.Choose(rng)
		if k < 0 || k > 2 {
			t.Fatalf("Choose returned %d", k)
		}
		seen[k] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("script %d (weight %d) never chosen", i, s.Weights()[i])
		}
	}
	// Single-script sets always pick index 0.
	one := NewScripts(Script{Name: "solo", Weight: 3, Tx: 1})
	for i := 0; i < 10; i++ {
		if one.Choose(rng) != 0 {
			t.Fatal("single-script Choose != 0")
		}
	}
}

func TestNewScriptsValidates(t *testing.T) {
	cases := []func(){
		func() { NewScripts() },
		func() { NewScripts(Script{Name: "x", Weight: 0, Tx: 1}) },
		func() { NewScripts(Script{Name: "x", Weight: -1, Tx: 1}) },
		func() { NewScripts(Script{Name: "x", Weight: 1, Tx: 0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestMixScriptFrequenciesMatchWeights drives a real mix preset and
// checks the chi-square bound on the emitted transaction mix — the
// end-to-end version of TestScriptsChooseRespectsWeights.
func TestMixScriptFrequenciesMatchWeights(t *testing.T) {
	for _, bench := range []string{"mix_frontend", "mix_oltp", "mix_batch"} {
		g := NewGenerator(SegmentID{Bench: bench, Seg: 1}, CoreBase(0)).(*MixGen)
		var rec trace.Record
		for i := 0; i < 200000; i++ {
			g.Next(&rec)
		}
		counts := g.ScriptCounts()
		weights := g.Scripts().Weights()
		var n, wsum float64
		for i := range counts {
			n += float64(counts[i])
			wsum += float64(weights[i])
		}
		chi2 := 0.0
		for i := range counts {
			expected := n * float64(weights[i]) / wsum
			d := float64(counts[i]) - expected
			chi2 += d * d / expected
		}
		if chi2 > 21 {
			t.Fatalf("%s: chi-square %.2f exceeds bound 21 (counts %v, weights %v)",
				bench, chi2, counts, weights)
		}
	}
}

// TestMixOpenLoopPacing: with an arrival interval configured, the stream
// must emit close to one transaction per interval of instructions — the
// open-loop arrival schedule — rather than running at the kernels' raw
// service rate.
func TestMixOpenLoopPacing(t *testing.T) {
	g := NewGenerator(SegmentID{Bench: "mix_oltp", Seg: 1}, CoreBase(0)).(*MixGen)
	var rec trace.Record
	var instr uint64
	for i := 0; i < 300000; i++ {
		g.Next(&rec)
		instr += rec.Instructions()
	}
	arrivals := uint64(0)
	for _, c := range g.ScriptCounts() {
		arrivals += c
	}
	perTx := float64(instr) / float64(arrivals)
	// The schedule paces arrivals at 400 instructions apart; transactions
	// whose own service exceeds the interval push the mean above it, but
	// it must sit near the interval, not at the raw (much smaller)
	// service time.
	if perTx < 395 || perTx > 600 {
		t.Fatalf("mean instructions per transaction = %.1f, want ~400 (open-loop pacing broken)", perTx)
	}
}
