package search

import (
	"mpppb/internal/core"
	"mpppb/internal/xrand"
)

// Threshold search (Section 5.5): "the bypass threshold τ0 is set first by
// an exhaustive search of all possible values. Then the values of τ1, τ2,
// τ3, τ4, π1, π2, and π3 are searched by generating thousands of random
// feasible combinations of these values and selecting the combination
// yielding the minimum average MPKI."

// SearchTau0 exhaustively sweeps the bypass threshold over [lo, hi] with
// the given step, holding the other parameters fixed, and returns the best
// value and its MPKI.
func SearchTau0(score func(core.Params) (float64, error), params core.Params, lo, hi, step int, progress func(tau0 int, mpki float64)) (int, float64, error) {
	bestTau := params.Tau0
	bestMPKI, err := score(params)
	if err != nil {
		return 0, 0, err
	}
	for t := lo; t <= hi; t += step {
		p := params
		p.Tau0 = t
		m, err := score(p)
		if err != nil {
			return 0, 0, err
		}
		if progress != nil {
			progress(t, m)
		}
		if m < bestMPKI {
			bestTau, bestMPKI = t, m
		}
	}
	return bestTau, bestMPKI, nil
}

// maxPosition returns the largest valid placement position for the default
// policy: 15 for MDPP, 3 for SRRIP.
func maxPosition(d core.DefaultPolicy) int {
	if d == core.DefaultSRRIP {
		return 3
	}
	return 15
}

// RandomFeasible draws a random feasible combination of τ1..τ4 and π1..π3:
// thresholds descending below τ0, positions descending protection
// (π1 least protected).
func RandomFeasible(rng *xrand.RNG, params core.Params) core.Params {
	p := params
	span := core.ConfMax - core.ConfMin
	// Draw three descending thresholds below Tau0.
	t1 := p.Tau0 - 1 - rng.Intn(span/4)
	t2 := t1 - 1 - rng.Intn(span/4)
	t3 := t2 - 1 - rng.Intn(span/4)
	p.Tau1, p.Tau2, p.Tau3 = t1, t2, t3
	p.Tau4 = rng.Intn(span/2) + core.ConfMin/2 // hit-side threshold, wide range
	mp := maxPosition(p.Default)
	// π1 >= π2 >= π3 (less protected to more protected).
	p.Pi[0] = mp - rng.Intn(2)
	if p.Pi[0] < 1 {
		p.Pi[0] = mp
	}
	p.Pi[1] = 1 + rng.Intn(p.Pi[0])
	p.Pi[2] = rng.Intn(p.Pi[1] + 1)
	return p
}

// SearchThresholds runs the random feasible-combination search and returns
// the best parameterization found.
func SearchThresholds(score func(core.Params) (float64, error), rng *xrand.RNG, start core.Params, n int, progress func(i int, best float64)) (core.Params, float64, error) {
	best := start
	bestMPKI, err := score(start)
	if err != nil {
		return best, 0, err
	}
	for i := 0; i < n; i++ {
		cand := RandomFeasible(rng, best)
		m, err := score(cand)
		if err != nil {
			return best, 0, err
		}
		if m < bestMPKI {
			best, bestMPKI = cand, m
		}
		if progress != nil {
			progress(i, bestMPKI)
		}
	}
	return best, bestMPKI, nil
}
