package experiments

import (
	"mpppb/internal/core"
	"mpppb/internal/search"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
	"mpppb/internal/xrand"
)

// Fig3Result is the feature-development experiment (Figure 3): random
// feature sets sorted by training MPKI against the LRU, MIN, and
// hill-climbed reference lines.
type Fig3Result struct {
	// RandomMPKI holds the training-set MPKI of each random feature set,
	// sorted descending (worst first), Figure 3's x-axis order.
	RandomMPKI []float64
	// BestRandom is the best random set found.
	BestRandom search.ScoredSet
	// HillClimbed is the refined set after hill climbing from BestRandom.
	HillClimbed search.ScoredSet
	// PaperSet is the training MPKI of the paper's Table 1(b) set, for
	// reference.
	PaperSetMPKI float64
	// LRUMPKI and MINMPKI are the reference lines.
	LRUMPKI float64
	MINMPKI float64
	// Evaluations counts the search's evaluations, one per candidate and
	// training segment, journal hits included (Evaluator.Evals).
	Evaluations int
}

// Evaluator scores LLC policies for the Section 5 searches (the fig3
// feature search, mpppb-search and mpppb-tune's τ/π search): the average
// fast-simulator MPKI over training segments, from one cell per policy
// and segment, shared with any experiment of the run that reads it.
type Evaluator struct {
	cfg      sim.Config
	training []workload.SegmentID
	run      *Run
	// Evals counts logical evaluations, one per policy and training
	// segment scored, journal hits included, so a resumed search reports
	// the same count as an uninterrupted one.
	Evals int
}

// NewEvaluator scores over the training segments under r's execution
// policy (nil: all defaults).
func NewEvaluator(cfg sim.Config, training []workload.SegmentID, r *Run) *Evaluator {
	return &Evaluator{cfg: cfg, training: training, run: r}
}

// MPKI returns each policy's average MPKI over the training segments,
// scoring the batch as one grid, so a resumed search, whose seed makes it
// propose the same batches, replays them from the journal. Each average
// sums in training order, bit-identical at any -j. With an error (a
// failed cell's, or a cancelled run's) it returns the averages of the
// policies before the first with a failed cell, as search.Batch asks.
func (e *Evaluator) MPKI(policies ...Policy) ([]float64, error) { return e.score(&grid{}, policies) }

// score is MPKI with the policies' cells added to g's, run as one grid.
func (e *Evaluator) score(g *grid, policies []Policy) ([]float64, error) {
	e.Evals += len(policies) * len(e.training)
	rows := make([][]string, len(policies))
	for i, p := range policies {
		for _, id := range e.training {
			rows[i] = append(rows[i], g.fast(e.cfg, p, id, 0))
		}
	}
	if err := g.run(e.run); err != nil {
		return nil, err
	}
	means := make([]float64, 0, len(rows))
	for _, row := range rows {
		m, err := g.mean(row)
		if err != nil {
			return means, err
		}
		means = append(means, m)
	}
	return means, nil
}

// Fig3FeatureSearch evaluates `nRandom` random 16-feature sets on the
// training segments, hill climbs from the best for up to `climbSteps`
// proposals, and computes the LRU/MIN reference MPKIs (Section 5.1,
// Figure 3). The paper used 4000 random sets and ~10 CPU-years; the
// defaults here are scaled down but the machinery is the same.
//
// The random phase is one grid: the random sets, the paper's set 1(b)
// (the registry's mpppb, shared with figadapt and table3), LRU's untimed
// run and MIN's cell (Figure 6's); then each hill-climb proposal is one.
// Every party to a run follows the same seeded proposals: a resumed run
// replays scored grids from the journal, and a fleet worker proposes from
// the grids it fetches.
func Fig3FeatureSearch(cfg sim.Config, training []workload.SegmentID, nRandom, climbSteps int, seed uint64, r *Run) (*Fig3Result, error) {
	if training == nil {
		training = workload.Segments()
	}
	rng := xrand.New(seed)
	ev := NewEvaluator(cfg, training, r)
	withSet := func(set []core.Feature) Policy {
		params := core.SingleThreadParams()
		params.Features = set
		return WithParams(params)
	}
	res := &Fig3Result{}
	random := func(sets [][]core.Feature) ([]float64, error) {
		var g grid
		var lru, mins []string
		for _, id := range training {
			mins = append(mins, g.min(cfg, id))
			lru = append(lru, g.fast(cfg, r.named("lru"), id, 0))
		}
		policies := make([]Policy, len(sets))
		for i, set := range sets {
			policies[i] = withSet(set)
		}
		mpkis, err := ev.score(&g, append(policies, r.named("mpppb")))
		if err != nil {
			return mpkis[:min(len(mpkis), len(sets))], err
		}
		// A failed reference cell makes its line NaN.
		res.PaperSetMPKI, mpkis = mpkis[len(sets)], mpkis[:len(sets)]
		res.LRUMPKI, _ = g.mean(lru)
		res.MINMPKI, _ = g.mean(mins)
		return mpkis, nil
	}
	climb := func(set []core.Feature) (float64, error) {
		m, err := ev.MPKI(withSet(set))
		if err != nil {
			return 0, err
		}
		return m[0], nil
	}

	scored, err := search.RandomSearch(random, rng, nRandom, core.DefaultFeatureCount,
		func(i int, mpki float64) { r.log("fig3 random set %d/%d: %.3f MPKI", i+1, nRandom, mpki) })
	if err != nil {
		return nil, err
	}
	res.BestRandom = scored[0]
	for _, s := range scored {
		res.RandomMPKI = append(res.RandomMPKI, s.MPKI)
	}
	res.RandomMPKI = stats.SortedDesc(res.RandomMPKI)

	r.log("fig3 hill climbing from %.3f MPKI", scored[0].MPKI)
	res.HillClimbed, err = search.HillClimb(climb, rng, scored[0], climbSteps, climbSteps/2+1,
		func(step int, best float64) { r.log("fig3 climb step %d: best %.3f", step+1, best) })
	if err != nil {
		return nil, err
	}
	res.Evaluations = ev.Evals
	return res, nil
}
