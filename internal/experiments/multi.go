package experiments

import (
	"fmt"
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
	named := make([]Policy, len(policies))
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
	t.FailedCells = g.failed()
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

// mcGrid is one multi-core grid: its cells, found by what they read.
type mcGrid struct {
	grid
	cfg sim.Config
	lru Policy
}

// key names p's cell on a mix, or on a segment for its standalone run.
func (g *mcGrid) key(p Policy, w fmt.Stringer) string { return cellKey("mc", g.cfg, p.id, w, 0) }

// runMultiGrid runs every policy, and LRU, on every mix, plus the
// standalone LRU run of every segment in the mixes (the weighted-speedup
// baselines of Section 4.5), as one grid: fig4, fig9 and fig10 share
// their baselines and fig9's original point. The 4-core cells come first,
// so the pool and the fleet, which dispatch in key order, start the
// longest cells first.
func runMultiGrid(cfg sim.Config, policies []Policy, mixes []workload.Mix, r *Run) (*mcGrid, error) {
	g := &mcGrid{cfg: cfg, lru: r.named("lru")}
	for _, p := range append([]Policy{g.lru}, policies...) {
		for _, mix := range mixes {
			g.add(g.key(p, mix), func() (cell, error) {
				res := sim.RunMulti(cfg, mix, p.pf)
				return cell{IPC: res.IPC[:], MPKI: res.MPKI}, nil
			})
		}
	}
	for _, mix := range mixes {
		for _, id := range mix {
			g.add(g.key(g.lru, id), func() (cell, error) {
				res := sim.RunSingle(cfg, workload.NewGenerator(id, workload.CoreBase(0)), g.lru.pf)
				if !(res.IPC > 0) {
					return cell{}, fmt.Errorf("experiments: standalone IPC %g of %s is not positive", res.IPC, id)
				}
				return measured(res), nil
			})
		}
	}
	return g, g.run(r)
}

// speedup is mix's weighted speedup under p normalized to LRU's (Section
// 4.5), or NaN when p's cell, LRU's or a standalone one failed.
func (g *mcGrid) speedup(p Policy, mix workload.Mix) float64 {
	single := make([]float64, len(mix))
	for i, id := range mix {
		c, err := g.cell(g.key(g.lru, id))
		if err != nil {
			return math.NaN()
		}
		single[i] = c.IPC[0]
	}
	base, errBase := g.cell(g.key(g.lru, mix))
	c, err := g.cell(g.key(p, mix))
	if errBase != nil || err != nil {
		return math.NaN()
	}
	return stats.WeightedSpeedup(c.IPC, single) / stats.WeightedSpeedup(base.IPC, single)
}

// mpki is the LLC MPKI of p on mix, or NaN when its cell failed.
func (g *mcGrid) mpki(p Policy, mix workload.Mix) float64 {
	if c, err := g.cell(g.key(p, mix)); err == nil {
		return c.MPKI
	}
	return math.NaN()
}

// geomeanWS is the geometric mean over mixes of p's normalized weighted
// speedup, taken in mix order — the y-axis of Figures 9 and 10. A failed
// cell makes it NaN.
func (g *mcGrid) geomeanWS(p Policy, mixes []workload.Mix, r *Run) float64 {
	ws := make([]float64, len(mixes))
	for i, mix := range mixes {
		ws[i] = g.speedup(p, mix)
	}
	return r.geoMean(ws)
}
