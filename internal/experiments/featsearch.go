package experiments

import (
	"context"
	"math"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/journal"
	"mpppb/internal/policy"
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

// Evaluator scores MPPPB parameterizations for the Section 5 searches
// (the fig3 feature search, mpppb-search and mpppb-tune's τ/π search): the
// average fast-simulator MPKI over a list of training segments. Each
// evaluation is one RunCells grid with one cell per training segment, so
// it is journaled, shown on /status and leased to fleet workers like
// every other grid.
type Evaluator struct {
	cfg      sim.Config
	training []workload.SegmentID
	run      *Run
	// Evals counts logical evaluations, one per training segment scored,
	// journal hits included, so a resumed search reports the same count
	// as an uninterrupted one.
	Evals int
}

// NewEvaluator scores over the training segments under r's execution
// policy (nil: all defaults).
func NewEvaluator(cfg sim.Config, training []workload.SegmentID, r *Run) *Evaluator {
	return &Evaluator{cfg: cfg, training: training, run: r}
}

// MPKI returns the average MPKI of params over the training segments. A
// cell's key is a hash of the params' JSON form plus its segment, so a
// resumed search, whose seed makes it propose the same candidates in the
// same order, replays them from the journal. Per-segment MPKIs are summed
// in training order, so the average is bit-identical at any -j. The first
// failed cell is returned as the error, and a cancelled run returns the
// context's error.
func (e *Evaluator) MPKI(params core.Params) (float64, error) {
	e.Evals += len(e.training)
	prefix := "mpki/" + journal.ConfigHash(params) + "/"
	keys := make([]string, len(e.training))
	for i, id := range e.training {
		keys[i] = prefix + id.String()
	}
	mpkis, cellErrs, err := RunCells(e.run, keys, func(_ context.Context, i int) (float64, error) {
		gen := workload.NewGenerator(e.training[i], workload.CoreBase(0))
		return sim.RunFastMPKI(e.cfg, gen, mpppbFactory(params)).MPKI, nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, m := range mpkis {
		if cellErrs[i] != nil {
			return 0, cellErrs[i]
		}
		sum += m
	}
	return sum / float64(len(e.training)), nil
}

// Fig3FeatureSearch evaluates `nRandom` random 16-feature sets on the
// training segments, hill climbs from the best for up to `climbSteps`
// proposals, and computes the LRU/MIN reference MPKIs (Section 5.1,
// Figure 3). The paper used 4000 random sets and ~10 CPU-years; the
// defaults here are scaled down but the machinery is the same.
//
// The search is sequential by construction (each hill-climb proposal
// depends on its predecessor), so it parallelizes and checkpoints at the
// evaluation level: each candidate is one Evaluator grid, scored with the
// set as the Features of the single-thread parameters. Every party to a
// run follows the same seeded proposal sequence: a resumed run replays
// evaluated candidates from the journal until it reaches the point of
// interruption, and a fleet worker proposes the next candidate from the
// grids it fetches. Evaluations counts logical (journal hits included)
// evaluations, so the reported TSV is byte-identical across resumes.
func Fig3FeatureSearch(cfg sim.Config, training []workload.SegmentID, nRandom, climbSteps int, seed uint64, r *Run) (*Fig3Result, error) {
	if training == nil {
		training = workload.Segments()
	}
	progress := r.prog()
	rng := xrand.New(seed)
	ev := NewEvaluator(cfg, training, r)
	score := func(set []core.Feature) (float64, error) {
		params := core.SingleThreadParams()
		params.Features = set
		return ev.MPKI(params)
	}

	scored, err := search.RandomSearch(score, rng, nRandom, core.DefaultFeatureCount,
		func(i int, mpki float64) { progress.log("fig3 random set %d/%d: %.3f MPKI", i+1, nRandom, mpki) })
	if err != nil {
		return nil, err
	}

	res := &Fig3Result{BestRandom: scored[0]}
	for _, s := range scored {
		res.RandomMPKI = append(res.RandomMPKI, s.MPKI)
	}
	res.RandomMPKI = stats.SortedDesc(res.RandomMPKI)

	progress.log("fig3 hill climbing from %.3f MPKI", scored[0].MPKI)
	res.HillClimbed, err = search.HillClimb(score, rng, scored[0], climbSteps, climbSteps/2+1,
		func(step int, best float64) { progress.log("fig3 climb step %d: best %.3f", step+1, best) })
	if err != nil {
		return nil, err
	}
	if res.PaperSetMPKI, err = score(core.SingleThreadSetB()); err != nil {
		return nil, err
	}

	// Reference lines: LRU and MIN average MPKI over the training set,
	// fanned across the pool and summed in segment order.
	type refMPKI struct {
		LRU float64 `json:"lru"`
		MIN float64 `json:"min"`
	}
	keys := make([]string, len(training))
	for i, id := range training {
		keys[i] = "fig3/ref/" + id.String()
	}
	refs, cellErrs, err := RunCells(r, keys, func(_ context.Context, i int) (refMPKI, error) {
		gen := workload.NewGenerator(training[i], workload.CoreBase(0))
		lru := sim.RunFastMPKI(cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
			return policy.NewLRU(sets, ways)
		}).MPKI
		_, minRes := sim.RunSingleMIN(cfg, gen)
		return refMPKI{LRU: lru, MIN: minRes.MPKI}, nil
	})
	if err != nil {
		return nil, err
	}
	var lruSum, minSum float64
	for i, ref := range refs {
		if cellErrs[i] != nil {
			lruSum, minSum = math.NaN(), math.NaN()
			continue
		}
		lruSum += ref.LRU
		minSum += ref.MIN
	}
	res.LRUMPKI = lruSum / float64(len(training))
	res.MINMPKI = minSum / float64(len(training))
	res.Evaluations = ev.Evals
	return res, nil
}
