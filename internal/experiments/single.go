package experiments

import (
	"context"
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
	// FailedCells lists, in suite order, journal keys of segment cells
	// that failed permanently under Run.KeepGoing; their contributions to
	// every aggregate above are NaN.
	FailedCells []string
}

// AllSingleThreadPolicies returns the policy column order including the
// implicit entries.
func (t *SingleThreadTable) AllSingleThreadPolicies() []string {
	return append(append([]string{"lru"}, t.Policies...), "min")
}

// segCell is the per-(benchmark, segment) unit of work: every policy's
// IPC and MPKI on that segment. Exported fields with JSON tags so the
// cell round-trips losslessly through the checkpoint journal.
type segCell struct {
	IPC  map[string]float64 `json:"ipc"`
	MPKI map[string]float64 `json:"mpki"`
}

// SingleThread runs the single-thread evaluation: every benchmark segment
// under LRU, MIN, and the given policies. Segments are independent, so
// they fan across the worker pool (Run.Workers, the cmd tools' -j);
// per-segment results merge back in suite order, making the table
// byte-identical at any worker count — including runs that were
// interrupted and resumed from r's journal.
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

	// One unit of work per (benchmark, segment): all policies on that
	// segment, sharing the segment's generator as the serial code did.
	ids := make([]workload.SegmentID, 0, len(benches)*workload.SegmentsPerBenchmark)
	for _, bench := range benches {
		for seg := 0; seg < workload.SegmentsPerBenchmark; seg++ {
			ids = append(ids, workload.SegmentID{Bench: bench, Seg: seg})
		}
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = "single/" + id.String()
	}
	runs, cellErrs, err := RunCells(r, keys, func(_ context.Context, i int) (segCell, error) {
		id := ids[i]
		c := segCell{IPC: map[string]float64{}, MPKI: map[string]float64{}}
		gen := workload.NewGenerator(id, workload.CoreBase(0))
		lruRes, minRes := sim.RunSingleMIN(cfg, gen)
		c.IPC["lru"], c.MPKI["lru"] = lruRes.IPC, lruRes.MPKI
		c.IPC["min"], c.MPKI["min"] = minRes.IPC, minRes.MPKI
		for _, p := range policies {
			res := sim.RunSingle(cfg, gen, r.mustPolicy(p))
			c.IPC[p], c.MPKI[p] = res.IPC, res.MPKI
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	// Merge in suite order: aggregation below consumes per-segment values
	// in exactly the sequence the serial loop produced them. A failed cell
	// (KeepGoing) contributes NaN to every aggregate it touches.
	segWeights := workload.SegmentWeights()
	for bi, bench := range benches {
		ipcs := map[string][]float64{}
		mpkis := map[string][]float64{}
		for seg := 0; seg < workload.SegmentsPerBenchmark; seg++ {
			i := bi*workload.SegmentsPerBenchmark + seg
			c := runs[i]
			if cellErrs[i] != nil {
				t.FailedCells = append(t.FailedCells, keys[i])
				for _, p := range all {
					ipcs[p] = append(ipcs[p], math.NaN())
					mpkis[p] = append(mpkis[p], math.NaN())
				}
				continue
			}
			for _, p := range all {
				ipcs[p] = append(ipcs[p], c.IPC[p])
				mpkis[p] = append(mpkis[p], c.MPKI[p])
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
