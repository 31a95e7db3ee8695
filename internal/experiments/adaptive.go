package experiments

import (
	"fmt"
	"math"
	"sort"

	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// AdaptiveRow is one segment of the adaptive-vs-static comparison: MPKI
// spread across seeds for both policies plus their mean ratio.
type AdaptiveRow struct {
	Segment workload.SegmentID
	// Static and Adaptive summarize MPKI across the seeds (min/max/
	// mean/stddev), the per-segment variability report for each policy.
	Static, Adaptive stats.Spread
	// Ratio is Adaptive.Mean / Static.Mean: < 1 means the online duel
	// beat the offline default on this segment.
	Ratio float64
}

// AdaptiveTable holds the data behind the adaptive-vs-static S-curve
// (figadapt): each fig6 segment simulated under the static-threshold
// MPPPB and the set-dueling adaptive variant, across several seeds
// (address-placement bases), sorted by MPKI ratio.
type AdaptiveTable struct {
	StaticPolicy   string
	AdaptivePolicy string
	Seeds          int
	// Rows in S-curve order: ascending Ratio, ties broken by segment name
	// so the ordering is total and the TSV deterministic.
	Rows []AdaptiveRow
	// NotWorse counts rows with Adaptive.Mean <= Static.Mean. Exact ties
	// count: a segment whose stream never stresses the thresholds
	// simulates identically under every candidate, and "the duel did no
	// harm" is precisely the acceptance bar.
	NotWorse int
	// FailedCells lists, in grid order, the keys of cells that failed
	// permanently under Run.KeepGoing; a segment with a failed cell is
	// dropped from the curve.
	FailedCells []string
}

// AdaptiveVsStatic runs the adaptive-threshold evaluation: every segment
// under the static and the adaptive policy, once per seed, on the fast
// (MPKI-only) simulator, as one grid of (policy, seed, segment) cells.
// The seed axis draws statistically equivalent but distinct reference
// streams (workload.NewSeededGenerator); seed 0 is the canonical stream
// of every other experiment, so mpppb's seed-0 cells are fig3's and
// table3's. Both policies see the same stream at each seed, so a per-seed
// MPKI delta isolates the duel's effect from stream noise.
func AdaptiveVsStatic(cfg sim.Config, staticPolicy, adaptivePolicy string, segs []workload.SegmentID, seeds int, r *Run) (*AdaptiveTable, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiments: AdaptiveVsStatic needs at least 1 seed, got %d", seeds)
	}
	t := &AdaptiveTable{StaticPolicy: staticPolicy, AdaptivePolicy: adaptivePolicy, Seeds: seeds}
	var g grid
	declare := func(p Policy) [][]string { // per segment, a key per seed
		keys := make([][]string, len(segs))
		for s := 0; s < seeds; s++ {
			for i, id := range segs {
				keys[i] = append(keys[i], g.fast(cfg, p, id, uint64(s)))
			}
		}
		return keys
	}
	static, adaptive := declare(r.named(staticPolicy)), declare(r.named(adaptivePolicy))
	if err := g.run(r); err != nil {
		return nil, err
	}
	t.FailedCells = g.failed()
	for i, id := range segs {
		st, err := g.mpkis(static[i])
		ad, aerr := g.mpkis(adaptive[i])
		if err != nil || aerr != nil {
			continue
		}
		row := AdaptiveRow{Segment: id, Static: stats.NewSpread(st), Adaptive: stats.NewSpread(ad)}
		row.Ratio = row.Adaptive.Mean / row.Static.Mean
		if row.Adaptive.Mean <= row.Static.Mean {
			t.NotWorse++
		}
		t.Rows = append(t.Rows, row)
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		// A 0/0 segment (both policies missless) has a NaN ratio; order it
		// last explicitly — NaN compares false to everything, which would
		// make a bare < comparator inconsistent and scramble the sort.
		ri, rj := t.Rows[i].Ratio, t.Rows[j].Ratio
		ni, nj := math.IsNaN(ri), math.IsNaN(rj)
		switch {
		case ni != nj:
			return nj
		case !ni && ri != rj:
			return ri < rj
		}
		return t.Rows[i].Segment.String() < t.Rows[j].Segment.String()
	})
	return t, nil
}
