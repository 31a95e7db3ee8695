// Package search implements the search algorithms of Section 5: generate
// a large population of random 16-feature sets, score each, then refine
// the best set with hill climbing (Section 5.1); sweep the bypass
// threshold and draw random feasible threshold combinations (Section
// 5.5). The algorithms take the score function as an argument and stop at
// its first error; the paper's score, the fast MPKI-only simulator over
// training segments, is experiments.Evaluator. Only hill climbing
// proposes from scores; the other searches score one Batch. Its mutations
// are the paper's: replace a feature with a fresh random one or a copy of
// another in the set, or perturb one of its parameters.
package search

import (
	"cmp"
	"fmt"
	"slices"

	"mpppb/internal/core"
	"mpppb/internal/xrand"
)

// RandomFeature draws one feature with random kind and parameters.
func RandomFeature(rng *xrand.RNG) core.Feature {
	f := core.Feature{
		Kind: core.Kind(rng.Intn(7)),
		A:    core.MinA + rng.Intn(core.MaxA-core.MinA+1),
		X:    rng.Bool(),
	}
	switch f.Kind {
	case core.KindPC:
		f.B = rng.Intn(24)
		f.E = min(f.B+rng.Intn(48), core.MaxBit)
		f.W = rng.Intn(core.MaxW + 1)
	case core.KindAddress:
		f.B = rng.Intn(32)
		f.E = min(f.B+rng.Intn(24), core.MaxBit)
	case core.KindOffset:
		f.B = rng.Intn(core.OffsetBits)
		f.E = f.B + rng.Intn(core.OffsetBits-f.B+2)
	}
	return f
}

// RandomSet draws a set of n random features.
func RandomSet(rng *xrand.RNG, n int) []core.Feature {
	fs := make([]core.Feature, n)
	for i := range fs {
		fs[i] = RandomFeature(rng)
	}
	return fs
}

// Mutate returns a copy of the set with one feature changed by one of the
// paper's three mutation kinds.
func Mutate(rng *xrand.RNG, set []core.Feature) []core.Feature {
	out := make([]core.Feature, len(set))
	copy(out, set)
	i := rng.Intn(len(out))
	switch rng.Intn(3) {
	case 0: // replace with a random feature
		out[i] = RandomFeature(rng)
	case 1: // replace with a copy of another feature
		out[i] = out[rng.Intn(len(out))]
	default: // perturb one parameter
		out[i] = perturb(rng, out[i])
	}
	return out
}

// perturb nudges one parameter of a feature, keeping it valid.
func perturb(rng *xrand.RNG, f core.Feature) core.Feature {
	clamp := func(v, lo, hi int) int { return max(lo, min(v, hi)) }
	delta := 1
	if rng.Bool() {
		delta = -1
	}
	switch rng.Intn(5) {
	case 0:
		f.A = clamp(f.A+delta, core.MinA, core.MaxA)
	case 1:
		if f.Kind == core.KindPC || f.Kind == core.KindAddress || f.Kind == core.KindOffset {
			f.B = clamp(f.B+delta, 0, f.E)
		}
	case 2:
		if f.Kind == core.KindPC || f.Kind == core.KindAddress || f.Kind == core.KindOffset {
			f.E = clamp(f.E+delta, f.B, core.MaxBit)
		}
	case 3:
		if f.Kind == core.KindPC {
			f.W = clamp(f.W+delta, 0, core.MaxW)
		}
	default:
		f.X = !f.X
	}
	return f
}

// Batch scores candidates at once: a score per candidate, in order, or an
// error with the scores of the candidates before the first that failed
// (or fewer), which a search reports as scoring one at a time would.
type Batch[C any] func([]C) ([]float64, error)

// RandomSearch scores n random feature sets as one batch and returns them
// with their MPKIs, best first.
func RandomSearch(score Batch[[]core.Feature], rng *xrand.RNG, n, setSize int, progress func(i int, mpki float64)) ([]ScoredSet, error) {
	if n <= 0 || setSize <= 0 {
		return nil, fmt.Errorf("search: non-positive search size")
	}
	sets := make([][]core.Feature, n)
	for i := range sets {
		sets[i] = RandomSet(rng, setSize)
	}
	mpkis, err := score(sets)
	out := make([]ScoredSet, len(mpkis))
	for i, mpki := range mpkis {
		out[i] = ScoredSet{Features: sets[i], MPKI: mpki}
		if progress != nil {
			progress(i, mpki)
		}
	}
	if err != nil {
		return nil, err
	}
	sortScored(out)
	return out, nil
}

// ScoredSet pairs a feature set with its training-set MPKI.
type ScoredSet struct {
	Features []core.Feature
	MPKI     float64
}

// sortScored orders s best first, ties in their order.
func sortScored(s []ScoredSet) {
	slices.SortStableFunc(s, func(a, b ScoredSet) int { return cmp.Compare(a.MPKI, b.MPKI) })
}

// HillClimb refines a feature set: each step proposes a mutation and keeps
// it if it lowers training MPKI; the climb stops after `patience`
// consecutive rejected proposals ("until it appears to have reached a state
// of convergence", Section 5.1) or maxSteps total proposals.
func HillClimb(score func([]core.Feature) (float64, error), rng *xrand.RNG, start ScoredSet, maxSteps, patience int, progress func(step int, best float64)) (ScoredSet, error) {
	best := start
	rejected := 0
	for step := 0; step < maxSteps && rejected < patience; step++ {
		cand := Mutate(rng, best.Features)
		mpki, err := score(cand)
		if err != nil {
			return best, err
		}
		if mpki < best.MPKI {
			best = ScoredSet{Features: cand, MPKI: mpki}
			rejected = 0
		} else {
			rejected++
		}
		if progress != nil {
			progress(step, best.MPKI)
		}
	}
	return best, nil
}
