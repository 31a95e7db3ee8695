package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/journal"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// cell is one simulation's raw measurements, from which tables derive
// every ratio and mean: each core's IPC (one for a single-thread run, 0
// untimed) and the LLC's MPKI. A MIN cell measures the MIN pass and holds
// the pass before it, the LRU run that records MIN's stream.
type cell struct {
	IPC  []float64 `json:"ipc"`
	MPKI float64   `json:"mpki"`
	LRU  *cell     `json:"lru,omitempty"`
}

func measured(res sim.Result) cell { return cell{IPC: []float64{res.IPC}, MPKI: res.MPKI} }

// Policy is an LLC policy as a grid declares it. Its id is its part of a
// cell key: a registry name (the journal fingerprint holds the run's duel
// candidates), or a hash of explicit MPPPB parameters, so equal parameter
// sets share cells.
type Policy struct {
	id string
	pf sim.PolicyFactory
}

// WithParams is MPPPB with explicit parameters.
func WithParams(p core.Params) Policy {
	return Policy{journal.ConfigHash(p), func(sets, ways int) cache.ReplacementPolicy { return core.NewMPPPB(sets, ways, p) }}
}

// cellKey names every experiment cell by what it reads: the kind of run
// ("mc", the multi-core grid's sim.RunMulti and standalone sim.RunSingle;
// "timed", "fast", "min" and "roc": sim.RunSingle, RunFastMPKI,
// RunSingleMIN and RunROC), the machine (less -check, which changes no
// value), the policy, the workload (a segment or a mix) with a digest of
// every trace file it replays, and the segment's seed if not 0.
func cellKey(kind string, cfg sim.Config, policy string, w fmt.Stringer, seed uint64) string {
	cfg.Check = false
	key := kind + "/" + journal.ConfigHash(cfg) + "/" + policy + "/" + w.String()
	var ids []workload.SegmentID
	switch w := w.(type) {
	case workload.SegmentID:
		ids = []workload.SegmentID{w}
	case workload.Mix:
		ids = w[:]
	}
	for _, id := range ids {
		if d := workload.TraceDigest(id.Bench); d != "" {
			key += "/" + d
		}
	}
	if seed != 0 {
		key += "/seed" + strconv.FormatUint(seed, 10)
	}
	return key
}

// grid is one RunCells grid of simulations, each declared once under its
// key: a simulation two grids of a run declare is served to the second by
// the run's journal.
type grid struct {
	index map[string]int
	keys  []string
	runs  []func() (cell, error)
	cells []cell
	errs  []error
}

// add declares the cell named key, computed by run, once; it returns key.
func (g *grid) add(key string, run func() (cell, error)) string {
	if g.index == nil {
		g.index = map[string]int{}
	}
	if _, ok := g.index[key]; !ok {
		g.index[key] = len(g.keys)
		g.keys = append(g.keys, key)
		g.runs = append(g.runs, run)
	}
	return key
}

// run computes the declared cells, or serves them, as one RunCells grid.
func (g *grid) run(r *Run) (err error) {
	g.cells, g.errs, err = RunCells(r, g.keys, func(_ context.Context, i int) (cell, error) { return g.runs[i]() })
	return err
}

// cell returns the cell named key, or its error if it failed.
func (g *grid) cell(key string) (cell, error) {
	i := g.index[key]
	return g.cells[i], g.errs[i]
}

// mpkis returns the MPKI of each cell named in keys, or the first failed
// cell's error.
func (g *grid) mpkis(keys []string) ([]float64, error) {
	out := make([]float64, len(keys))
	for i, key := range keys {
		c, err := g.cell(key)
		if err != nil {
			return nil, err
		}
		out[i] = c.MPKI
	}
	return out, nil
}

// mean is the mean MPKI of the cells named in keys, or NaN and the first
// failed cell's error.
func (g *grid) mean(keys []string) (float64, error) {
	m, err := g.mpkis(keys)
	if err != nil {
		return math.NaN(), err
	}
	return stats.Mean(m), nil
}

// failed lists the keys of the cells that failed, in grid order.
func (g *grid) failed() (keys []string) {
	for i, err := range g.errs {
		if err != nil {
			keys = append(keys, g.keys[i])
		}
	}
	return keys
}

// timed declares p's sim.RunSingle on segment id.
func (g *grid) timed(cfg sim.Config, p Policy, id workload.SegmentID) string {
	return g.add(cellKey("timed", cfg, p.id, id, 0), func() (cell, error) {
		return measured(sim.RunSingle(cfg, workload.NewGenerator(id, workload.CoreBase(0)), p.pf)), nil
	})
}

// fast declares p's sim.RunFastMPKI on segment id's stream at seed.
func (g *grid) fast(cfg sim.Config, p Policy, id workload.SegmentID, seed uint64) string {
	return g.add(cellKey("fast", cfg, p.id, id, seed), func() (cell, error) {
		return measured(sim.RunFastMPKI(cfg, workload.NewSeededGenerator(id, workload.CoreBase(0), seed), p.pf)), nil
	})
}

// min declares sim.RunSingleMIN on segment id, both passes in one cell.
func (g *grid) min(cfg sim.Config, id workload.SegmentID) string {
	return g.add(cellKey("min", cfg, "min", id, 0), func() (cell, error) {
		lruRes, minRes := sim.RunSingleMIN(cfg, workload.NewGenerator(id, workload.CoreBase(0)))
		c, lru := measured(minRes), measured(lruRes)
		c.LRU = &lru
		return c, nil
	})
}
