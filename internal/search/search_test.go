package search

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mpppb/internal/core"
	"mpppb/internal/xrand"
)

func TestRandomFeatureAlwaysValid(t *testing.T) {
	rng := xrand.New(1)
	for i := 0; i < 5000; i++ {
		f := RandomFeature(rng)
		if err := f.Validate(); err != nil {
			t.Fatalf("random feature invalid: %v", err)
		}
	}
}

func TestRandomFeatureCoversAllKinds(t *testing.T) {
	rng := xrand.New(2)
	seen := map[core.Kind]bool{}
	for i := 0; i < 1000; i++ {
		seen[RandomFeature(rng).Kind] = true
	}
	if len(seen) != 7 {
		t.Fatalf("random features covered %d of 7 kinds", len(seen))
	}
}

func TestRandomSetSize(t *testing.T) {
	rng := xrand.New(3)
	set := RandomSet(rng, 16)
	if len(set) != 16 {
		t.Fatalf("set size %d", len(set))
	}
}

func TestMutatePreservesValidityAndSize(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		set := RandomSet(rng, 8)
		for step := 0; step < 50; step++ {
			set = Mutate(rng, set)
			if len(set) != 8 {
				return false
			}
			for _, f := range set {
				if f.Validate() != nil {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateChangesAtMostOneFeature(t *testing.T) {
	rng := xrand.New(9)
	set := RandomSet(rng, 16)
	for i := 0; i < 100; i++ {
		next := Mutate(rng, set)
		changed := 0
		for j := range set {
			if set[j] != next[j] {
				changed++
			}
		}
		if changed > 1 {
			t.Fatalf("mutation changed %d features", changed)
		}
		set = next
	}
}

func TestMutateDoesNotAliasInput(t *testing.T) {
	rng := xrand.New(10)
	set := RandomSet(rng, 4)
	orig := append([]core.Feature(nil), set...)
	for i := 0; i < 200; i++ {
		Mutate(rng, set)
	}
	for j := range set {
		if set[j] != orig[j] {
			t.Fatal("Mutate modified its input")
		}
	}
}

// score is a cheap deterministic stand-in for the simulator's training
// MPKI: sets of low-associativity features of low kinds score best.
func score(set []core.Feature) (float64, error) {
	var m float64
	for _, f := range set {
		m += float64(f.A + int(f.Kind))
	}
	return m, nil
}

func TestRandomSearchSortsBestFirst(t *testing.T) {
	calls := 0
	counted := func(set []core.Feature) (float64, error) {
		calls++
		return score(set)
	}
	scored, err := RandomSearch(counted, xrand.New(4), 5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(scored); i++ {
		if scored[i].MPKI < scored[i-1].MPKI {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if calls != 5 {
		t.Fatalf("%d scores, want 5", calls)
	}
}

func TestRandomSearchRejectsBadArgs(t *testing.T) {
	if _, err := RandomSearch(score, xrand.New(1), 0, 16, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := RandomSearch(score, xrand.New(1), 1, 0, nil); err == nil {
		t.Fatal("setSize=0 accepted")
	}
}

func TestHillClimbNeverWorsens(t *testing.T) {
	rng := xrand.New(5)
	start := ScoredSet{Features: RandomSet(rng, 4)}
	start.MPKI, _ = score(start.Features)
	prev := start.MPKI
	best, err := HillClimb(score, rng, start, 200, 200, func(_ int, b float64) {
		if b > prev {
			t.Fatalf("hill climb worsened: %.0f -> %.0f", prev, b)
		}
		prev = b
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.MPKI >= start.MPKI {
		t.Fatalf("hill climb never improved on %.0f", start.MPKI)
	}
	if m, _ := score(best.Features); m != best.MPKI {
		t.Fatalf("climbed set scores %.0f, reported %.0f", m, best.MPKI)
	}
}

func TestHillClimbStopsOnPatience(t *testing.T) {
	flat := func([]core.Feature) (float64, error) { return 1, nil }
	start := ScoredSet{Features: core.SingleThreadSetB(), MPKI: 1}
	steps := 0
	HillClimb(flat, xrand.New(6), start, 1000, 3, func(int, float64) { steps++ })
	if steps != 3 {
		t.Fatalf("%d proposals on a flat score, want the patience of 3", steps)
	}
}

func TestRandomFeasible(t *testing.T) {
	params := core.SingleThreadParams()
	rng := xrand.New(7)
	for i := 0; i < 200; i++ {
		p := RandomFeasible(rng, params)
		if !(p.Tau0 > p.Tau1 && p.Tau1 > p.Tau2 && p.Tau2 > p.Tau3) {
			t.Fatalf("thresholds not descending: %d %d %d %d", p.Tau0, p.Tau1, p.Tau2, p.Tau3)
		}
		maxPos := 15
		if p.Default == core.DefaultSRRIP {
			maxPos = 3
		}
		for j, pi := range p.Pi {
			if pi < 0 || pi > maxPos {
				t.Fatalf("pi[%d] = %d out of range", j, pi)
			}
		}
		if !(p.Pi[0] >= p.Pi[1] && p.Pi[1] >= p.Pi[2]) {
			t.Fatalf("positions not ordered: %v", p.Pi)
		}
	}
}

func TestSearchTau0FindsNoWorse(t *testing.T) {
	// Best at τ0 = 100; the 64-step sweep can reach 128 at best.
	dist := func(p core.Params) (float64, error) { return math.Abs(float64(p.Tau0 - 100)), nil }
	params := core.SingleThreadParams()
	base, _ := dist(params)
	tau, best, err := SearchTau0(dist, params, 0, 255, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if best > base || tau != 128 || best != 28 {
		t.Fatalf("tau0 sweep found %d at %.0f from a base of %.0f; want 128 at 28", tau, best, base)
	}
}

// TestSearchReturnsScoreError: each algorithm stops at the score's first
// error and returns it.
func TestSearchReturnsScoreError(t *testing.T) {
	boom := errors.New("boom")
	failSet := func([]core.Feature) (float64, error) { return 0, boom }
	failParams := func(core.Params) (float64, error) { return 0, boom }
	params := core.SingleThreadParams()
	_, errRandom := RandomSearch(failSet, xrand.New(1), 3, 4, nil)
	_, errClimb := HillClimb(failSet, xrand.New(1), ScoredSet{Features: RandomSet(xrand.New(1), 4)}, 3, 3, nil)
	_, _, errTau0 := SearchTau0(failParams, params, 0, 255, 64, nil)
	_, _, errThresholds := SearchThresholds(failParams, xrand.New(1), params, 3, nil)
	for name, err := range map[string]error{"RandomSearch": errRandom, "HillClimb": errClimb,
		"SearchTau0": errTau0, "SearchThresholds": errThresholds} {
		if !errors.Is(err, boom) {
			t.Errorf("%s returned %v, want the score's error", name, err)
		}
	}
}
