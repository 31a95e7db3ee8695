package experiments

import (
	"context"
	"math"

	"mpppb/internal/cache"
	"mpppb/internal/core"
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
	// Evaluations counts fast-simulator invocations.
	Evaluations int
}

// Fig3FeatureSearch evaluates `nRandom` random 16-feature sets on the
// training segments, hill climbs from the best for up to `climbSteps`
// proposals, and computes the LRU/MIN reference MPKIs (Section 5.1,
// Figure 3). The paper used 4000 random sets and ~10 CPU-years; the
// defaults here are scaled down but the machinery is the same.
//
// The search is sequential by construction (each hill-climb proposal
// depends on its predecessor), so checkpointing works at the evaluation
// level: every feature set's training MPKI lands in r's journal under
// search.SetKey, and a resumed run — same seed, hence the same proposal
// sequence — replays evaluated sets from disk until it reaches the point
// of interruption. Evaluations counts logical (journal hits included)
// evaluations, so the reported TSV is byte-identical across resumes.
func Fig3FeatureSearch(cfg sim.Config, training []workload.SegmentID, nRandom, climbSteps int, seed uint64, r *Run) (res *Fig3Result, retErr error) {
	if training == nil {
		training = workload.Segments()
	}
	progress := r.prog()
	rng := xrand.New(seed)
	ev := search.NewEvaluator(cfg, training)
	ev.Ctx = r.ctx()
	ev.Journal = r.jrnl()

	// The search loops have no error returns; a cancelled or failed
	// evaluation surfaces as a panic carrying the wrapped error.
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok {
				res, retErr = nil, err
				return
			}
			panic(p)
		}
	}()

	scored, err := search.RandomSearch(ev, rng, nRandom, core.DefaultFeatureCount,
		func(i int, mpki float64) { progress.log("fig3 random set %d/%d: %.3f MPKI", i+1, nRandom, mpki) })
	if err != nil {
		panic("experiments: " + err.Error())
	}

	res = &Fig3Result{BestRandom: scored[0]}
	for _, s := range scored {
		res.RandomMPKI = append(res.RandomMPKI, s.MPKI)
	}
	res.RandomMPKI = stats.SortedDesc(res.RandomMPKI)

	progress.log("fig3 hill climbing from %.3f MPKI", scored[0].MPKI)
	res.HillClimbed = search.HillClimb(ev, rng, scored[0], climbSteps, climbSteps/2+1,
		func(step int, best float64) { progress.log("fig3 climb step %d: best %.3f", step+1, best) })

	res.PaperSetMPKI = ev.MPKI(core.SingleThreadSetB())

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
