package experiments

import (
	"context"
	"math"

	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// MultiCoreTable holds the data behind Figures 4 (normalized weighted
// speedup S-curve) and 5 (MPKI S-curve) for 4-core multi-programmed
// workloads.
type MultiCoreTable struct {
	Policies []string
	Mixes    []workload.Mix
	// WeightedSpeedup[policy][i] is mix i's weighted speedup normalized to
	// LRU (LRU's own row is identically 1).
	WeightedSpeedup map[string][]float64
	// MPKI[policy][i] is mix i's shared-LLC MPKI.
	MPKI map[string][]float64
	// GeomeanSpeedup[policy] across mixes.
	GeomeanSpeedup map[string]float64
	// MeanMPKI[policy] arithmetic mean across mixes.
	MeanMPKI map[string]float64
	// BelowLRU[policy] counts mixes with normalized speedup < 1 (Section
	// 6.1.1's stability comparison).
	BelowLRU map[string]int
	// FailedCells lists journal keys of mix cells that failed permanently
	// under Run.KeepGoing; their rows hold NaN.
	FailedCells []string
}

// mixCell is the per-mix unit of work, shaped for lossless journaling.
type mixCell struct {
	LRUMPKI float64            `json:"lru_mpki"`
	WS      map[string]float64 `json:"ws"`
	MPKI    map[string]float64 `json:"mpki"`
}

// MultiCore runs the multi-programmed evaluation over the given mixes.
// Mixes are independent, so they fan across the worker pool; the shared
// SingleIPCCache is single-flight, so concurrent mixes needing the same
// segment's standalone baseline never duplicate that run. Per-mix results
// merge back in input order, making the table byte-identical at any
// worker count — including runs interrupted and resumed from r's journal.
func MultiCore(cfg sim.Config, policies []string, mixes []workload.Mix, r *Run) (*MultiCoreTable, error) {
	t := &MultiCoreTable{
		Policies:        policies,
		Mixes:           mixes,
		WeightedSpeedup: map[string][]float64{},
		MPKI:            map[string][]float64{},
		GeomeanSpeedup:  map[string]float64{},
		MeanMPKI:        map[string]float64{},
		BelowLRU:        map[string]int{},
	}
	singles := sim.NewSingleIPCCache(cfg)
	lruPF := r.mustPolicy("lru")

	keys := make([]string, len(mixes))
	for i, mix := range mixes {
		keys[i] = "multi/" + mix.String()
	}
	runs, cellErrs, err := RunCells(r, keys, func(_ context.Context, i int) (mixCell, error) {
		mix := mixes[i]
		single := singles.For(mix)
		lruRes := sim.RunMulti(cfg, mix, lruPF)
		lruWS := lruRes.WeightedSpeedup(single)
		c := mixCell{LRUMPKI: lruRes.MPKI, WS: map[string]float64{}, MPKI: map[string]float64{}}
		for _, p := range policies {
			res := sim.RunMulti(cfg, mix, r.mustPolicy(p))
			c.WS[p] = res.WeightedSpeedup(single) / lruWS
			c.MPKI[p] = res.MPKI
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for i := range mixes {
		c := runs[i]
		if cellErrs[i] != nil {
			// Failed mix: every policy's row holds NaN (the LRU speedup
			// column stays 1 by definition, but its MPKI is unknown).
			t.FailedCells = append(t.FailedCells, keys[i])
			t.WeightedSpeedup["lru"] = append(t.WeightedSpeedup["lru"], 1.0)
			t.MPKI["lru"] = append(t.MPKI["lru"], math.NaN())
			for _, p := range policies {
				t.WeightedSpeedup[p] = append(t.WeightedSpeedup[p], math.NaN())
				t.MPKI[p] = append(t.MPKI[p], math.NaN())
			}
			continue
		}
		t.WeightedSpeedup["lru"] = append(t.WeightedSpeedup["lru"], 1.0)
		t.MPKI["lru"] = append(t.MPKI["lru"], c.LRUMPKI)
		for _, p := range policies {
			t.WeightedSpeedup[p] = append(t.WeightedSpeedup[p], c.WS[p])
			t.MPKI[p] = append(t.MPKI[p], c.MPKI[p])
			if c.WS[p] < 1 {
				t.BelowLRU[p]++
			}
		}
	}

	for _, p := range append([]string{"lru"}, policies...) {
		t.GeomeanSpeedup[p] = r.geoMean(t.WeightedSpeedup[p])
		t.MeanMPKI[p] = stats.Mean(t.MPKI[p])
	}
	return t, nil
}

// SpeedupSCurve returns a policy's normalized weighted speedups in
// ascending order (Figure 4's presentation).
func (t *MultiCoreTable) SpeedupSCurve(policy string) []float64 {
	return stats.Sorted(t.WeightedSpeedup[policy])
}

// MPKISCurve returns a policy's per-mix MPKI in descending order (Figure
// 5's worst-to-best presentation).
func (t *MultiCoreTable) MPKISCurve(policy string) []float64 {
	return stats.SortedDesc(t.MPKI[policy])
}
