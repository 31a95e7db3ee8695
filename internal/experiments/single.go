package experiments

import (
	"math"
	"sort"

	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// SingleThreadTable holds the data behind Figures 6 (speedup over LRU) and
// 7 (MPKI) for the single-thread suite. Per-benchmark numbers aggregate the
// benchmark's segments with their simpoint-style weights
// (workload.SegmentWeights), as in Section 4.2.
type SingleThreadTable struct {
	// Policies lists the realistic policies (lru and min are implicit).
	Policies []string
	// Benchmarks in suite order.
	Benchmarks []string
	// IPC[policy][bench]; includes "lru" and "min" entries.
	IPC map[string]map[string]float64
	// Speedup[policy][bench] is IPC relative to LRU.
	Speedup map[string]map[string]float64
	// MPKI[policy][bench]; includes "lru" and "min".
	MPKI map[string]map[string]float64
	// GeomeanSpeedup[policy] across benchmarks; includes "min".
	GeomeanSpeedup map[string]float64
	// MeanMPKI[policy] arithmetic mean across benchmarks.
	MeanMPKI map[string]float64
	// BestCount[policy] counts benchmarks where the policy had the best
	// speedup among the realistic policies (Section 6.2.1's "22 out of 33").
	BestCount map[string]int
	// FailedCells lists, in grid order, the keys of cells that failed
	// permanently under Run.KeepGoing. A failed MIN cell makes its
	// segment's LRU and MIN entries NaN, and every policy's speedup there;
	// a failed policy cell makes that policy's entries NaN.
	FailedCells []string
}

// AllSingleThreadPolicies returns the policy column order including the
// implicit entries.
func (t *SingleThreadTable) AllSingleThreadPolicies() []string {
	return append(append([]string{"lru"}, t.Policies...), "min")
}

// SingleThread runs the single-thread evaluation: every benchmark segment
// under LRU, MIN, and the given policies, as one grid. LRU's run is MIN's
// first pass, read from MIN's cell; MIN's cells, two runs each, come
// first, so the pool and the fleet start the longest first. Values
// aggregate in suite order, so the table is byte-identical at any -j,
// across resumes, and when another experiment computed the cells.
func SingleThread(cfg sim.Config, policies []string, benches []string, r *Run) (*SingleThreadTable, error) {
	if benches == nil {
		benches = workload.Benchmarks()
	}
	t := &SingleThreadTable{
		Policies:       policies,
		Benchmarks:     benches,
		IPC:            map[string]map[string]float64{},
		Speedup:        map[string]map[string]float64{},
		MPKI:           map[string]map[string]float64{},
		GeomeanSpeedup: map[string]float64{},
		MeanMPKI:       map[string]float64{},
		BestCount:      map[string]int{},
	}
	all := t.AllSingleThreadPolicies()
	for _, p := range all {
		t.IPC[p] = map[string]float64{}
		t.Speedup[p] = map[string]float64{}
		t.MPKI[p] = map[string]float64{}
	}

	var g grid
	var ids []workload.SegmentID
	var mins []string
	for _, bench := range benches {
		for seg := 0; seg < workload.SegmentsPerBenchmark; seg++ {
			id := workload.SegmentID{Bench: bench, Seg: seg}
			ids = append(ids, id)
			mins = append(mins, g.min(cfg, id))
		}
	}
	runs := make([][]string, len(policies))
	for pi, p := range policies {
		for _, id := range ids {
			runs[pi] = append(runs[pi], g.timed(cfg, r.named(p), id))
		}
	}
	if err := g.run(r); err != nil {
		return nil, err
	}
	t.FailedCells = g.failed()

	// A failed cell (KeepGoing) contributes NaN to every aggregate it
	// touches: a MIN cell to LRU's and MIN's, and through LRU to speedups.
	segWeights := workload.SegmentWeights()
	for bi, bench := range benches {
		ipcs := map[string][]float64{}
		mpkis := map[string][]float64{}
		add := func(p string, c *cell, err error) {
			ipc, mpki := math.NaN(), math.NaN()
			if err == nil {
				ipc, mpki = c.IPC[0], c.MPKI
			}
			ipcs[p] = append(ipcs[p], ipc)
			mpkis[p] = append(mpkis[p], mpki)
		}
		for seg := 0; seg < workload.SegmentsPerBenchmark; seg++ {
			i := bi*workload.SegmentsPerBenchmark + seg
			c, err := g.cell(mins[i])
			add("lru", c.LRU, err)
			add("min", &c, err)
			for pi, p := range policies {
				c, err := g.cell(runs[pi][i])
				add(p, &c, err)
			}
		}
		for _, p := range all {
			t.IPC[p][bench] = stats.WeightedMean(ipcs[p], segWeights[:])
			t.MPKI[p][bench] = stats.WeightedMean(mpkis[p], segWeights[:])
			t.Speedup[p][bench] = t.IPC[p][bench] / t.IPC["lru"][bench]
		}
		// Track which realistic policy wins this benchmark.
		best, bestV := "", 0.0
		for _, p := range policies {
			if t.Speedup[p][bench] > bestV {
				best, bestV = p, t.Speedup[p][bench]
			}
		}
		if best != "" {
			t.BestCount[best]++
		}
	}

	for _, p := range all {
		var sp, mp []float64
		for _, b := range benches {
			sp = append(sp, t.Speedup[p][b])
			mp = append(mp, t.MPKI[p][b])
		}
		t.GeomeanSpeedup[p] = r.geoMean(sp)
		t.MeanMPKI[p] = stats.Mean(mp)
	}
	return t, nil
}

// BenchmarksBySpeedup returns the benchmarks sorted ascending by a policy's
// speedup, the x-axis ordering of Figure 6.
func (t *SingleThreadTable) BenchmarksBySpeedup(policy string) []string {
	out := make([]string, len(t.Benchmarks))
	copy(out, t.Benchmarks)
	sort.Slice(out, func(i, j int) bool {
		return t.Speedup[policy][out[i]] < t.Speedup[policy][out[j]]
	})
	return out
}
