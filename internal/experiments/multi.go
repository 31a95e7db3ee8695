package experiments

import (
	"context"
	"fmt"
	"math"

	"mpppb/internal/core"
	"mpppb/internal/journal"
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
	// FailedCells lists, in grid order, the keys of cells that failed
	// permanently under Run.KeepGoing. A failed LRU or standalone cell
	// makes its mix's speedups NaN for every policy; a failed policy cell
	// makes that policy's entries NaN.
	FailedCells []string
}

// MultiCore runs the multi-programmed evaluation over the given mixes as
// one grid (see runMultiGrid): every policy and LRU on every mix, plus
// each segment's standalone run. Speedups are derived from the cells in
// mix order, so the table is byte-identical at any worker count, across
// resumes, and when another experiment of the run computed the cells.
func MultiCore(cfg sim.Config, policies []string, mixes []workload.Mix, r *Run) (*MultiCoreTable, error) {
	named := make([]mcPolicy, len(policies))
	for i, p := range policies {
		named[i] = r.named(p)
	}
	g, err := runMultiGrid(cfg, named, mixes, r)
	if err != nil {
		return nil, err
	}
	t := &MultiCoreTable{
		Policies:        policies,
		Mixes:           mixes,
		WeightedSpeedup: map[string][]float64{},
		MPKI:            map[string][]float64{},
		GeomeanSpeedup:  map[string]float64{},
		MeanMPKI:        map[string]float64{},
		BelowLRU:        map[string]int{},
	}
	for i, err := range g.errs {
		if err != nil {
			t.FailedCells = append(t.FailedCells, g.keys[i])
		}
	}
	for _, mix := range mixes {
		// LRU's speedup is 1 by definition, even when its cell failed.
		t.WeightedSpeedup["lru"] = append(t.WeightedSpeedup["lru"], 1.0)
		t.MPKI["lru"] = append(t.MPKI["lru"], g.mpki(g.lru, mix))
		for i, p := range policies {
			ws := g.speedup(named[i], mix)
			t.WeightedSpeedup[p] = append(t.WeightedSpeedup[p], ws)
			t.MPKI[p] = append(t.MPKI[p], g.mpki(named[i], mix))
			if ws < 1 {
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

// mcPolicy is a multi-core LLC policy as a grid declares it. id is its
// part of a cell key: a registry name (the journal fingerprint holds the
// run's duel candidates), or a hash of explicit MPPPB parameters, so
// equal parameter sets share cells.
type mcPolicy struct {
	id string
	pf sim.PolicyFactory
}

// named resolves a registry policy with the run's duel candidates.
func (r *Run) named(name string) mcPolicy { return mcPolicy{name, r.mustPolicy(name)} }

// withParams is MPPPB with explicit parameters.
func withParams(p core.Params) mcPolicy { return mcPolicy{journal.ConfigHash(p), mpppbFactory(p)} }

// mcCell is one multi-core simulation's raw measurements: each core's IPC
// (one entry for a standalone run) and the LLC's MPKI. Tables derive
// every ratio from them.
type mcCell struct {
	IPC  []float64 `json:"ipc"`
	MPKI float64   `json:"mpki"`
}

// mcGrid is one multi-core grid's cells, found by key.
type mcGrid struct {
	prefix string
	lru    mcPolicy
	index  map[string]int
	keys   []string
	cells  []mcCell
	errs   []error
}

// key names a cell by what it reads: the machine (the grid's prefix), the
// policy and the workload, a mix for a sim.RunMulti cell or a segment for
// its standalone sim.RunSingle under LRU.
func (g *mcGrid) key(p mcPolicy, w fmt.Stringer) string { return g.prefix + p.id + "/" + w.String() }

// runMultiGrid runs every policy, and LRU, on every mix, plus the
// standalone LRU run of every segment in the mixes (the weighted-speedup
// baselines of Section 4.5), as one RunCells grid. Each key is declared
// once, and the journal serves the cells an earlier grid of the run (or
// a resumed journal) holds: fig4, fig9 and fig10 share their baselines
// and fig9's original point. The 4-core cells come first, so the pool and
// the fleet, which dispatch in key order, start the longest cells first.
func runMultiGrid(cfg sim.Config, policies []mcPolicy, mixes []workload.Mix, r *Run) (*mcGrid, error) {
	// -check verifies a run without changing its values, so it is left
	// out of the machine's hash, as it is of the journal fingerprint.
	machine := cfg
	machine.Check = false
	g := &mcGrid{prefix: "mc/" + journal.ConfigHash(machine) + "/", lru: r.named("lru"), index: map[string]int{}}
	var runs []func() (mcCell, error)
	declare := func(key string, run func() (mcCell, error)) {
		if _, ok := g.index[key]; !ok {
			g.index[key] = len(g.keys)
			g.keys = append(g.keys, key)
			runs = append(runs, run)
		}
	}
	for _, p := range append([]mcPolicy{g.lru}, policies...) {
		for _, mix := range mixes {
			declare(g.key(p, mix), func() (mcCell, error) {
				res := sim.RunMulti(cfg, mix, p.pf)
				return mcCell{IPC: res.IPC[:], MPKI: res.MPKI}, nil
			})
		}
	}
	for _, mix := range mixes {
		for _, id := range mix {
			declare(g.key(g.lru, id), func() (mcCell, error) {
				res := sim.RunSingle(cfg, workload.NewGenerator(id, workload.CoreBase(0)), g.lru.pf)
				if !(res.IPC > 0) {
					return mcCell{}, fmt.Errorf("experiments: standalone IPC %g of %s is not positive", res.IPC, id)
				}
				return mcCell{IPC: []float64{res.IPC}, MPKI: res.MPKI}, nil
			})
		}
	}
	var err error
	g.cells, g.errs, err = RunCells(r, g.keys, func(_ context.Context, i int) (mcCell, error) { return runs[i]() })
	return g, err
}

// cell returns the measurements of p on a workload, and false if the
// cell failed.
func (g *mcGrid) cell(p mcPolicy, w fmt.Stringer) (mcCell, bool) {
	i := g.index[g.key(p, w)]
	return g.cells[i], g.errs[i] == nil
}

// speedup is mix's weighted speedup under p normalized to LRU's (Section
// 4.5), or NaN when p's cell, LRU's or a standalone one failed.
func (g *mcGrid) speedup(p mcPolicy, mix workload.Mix) float64 {
	single := make([]float64, len(mix))
	for i, id := range mix {
		c, ok := g.cell(g.lru, id)
		if !ok {
			return math.NaN()
		}
		single[i] = c.IPC[0]
	}
	base, okBase := g.cell(g.lru, mix)
	c, ok := g.cell(p, mix)
	if !okBase || !ok {
		return math.NaN()
	}
	return stats.WeightedSpeedup(c.IPC, single) / stats.WeightedSpeedup(base.IPC, single)
}

// mpki is the LLC MPKI of p on mix, or NaN when its cell failed.
func (g *mcGrid) mpki(p mcPolicy, mix workload.Mix) float64 {
	if c, ok := g.cell(p, mix); ok {
		return c.MPKI
	}
	return math.NaN()
}

// geomeanWS is the geometric mean over mixes of p's normalized weighted
// speedup, taken in mix order — the y-axis of Figures 9 and 10. A failed
// cell makes it NaN.
func (g *mcGrid) geomeanWS(p mcPolicy, mixes []workload.Mix, r *Run) float64 {
	ws := make([]float64, len(mixes))
	for i, mix := range mixes {
		ws[i] = g.speedup(p, mix)
	}
	return r.geoMean(ws)
}
