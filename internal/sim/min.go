package sim

import (
	"mpppb/internal/belady"
	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// RunNamed runs gen on the single-thread machine under a policy named as
// the tools and the facade name them: a registered policy, dueling cands
// if it is adaptive (see PolicyWith; nil keeps the defaults), or "min"
// for the two-pass RunSingleMIN.
func RunNamed(cfg Config, gen trace.Generator, name string, cands []core.ThresholdSet) (Result, error) {
	if name == "min" {
		_, res := RunSingleMIN(cfg, gen)
		return res, nil
	}
	pf, err := PolicyWith(name, cands)
	if err != nil {
		return Result{}, err
	}
	return RunSingle(cfg, gen, pf), nil
}

// RunSingleMIN runs Bélády's MIN with optimal bypass on a segment. It is a
// two-pass simulation: pass one records the LLC reference stream under LRU
// (which also yields the LRU result for free), pass two replays the
// workload with the optimal policy. See package belady for why the stream
// is identical across passes.
func RunSingleMIN(cfg Config, gen trace.Generator) (lru, min Result) {
	var rec *belady.Recorder
	lru = RunSingle(cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
		rec = belady.NewRecorder(policy.NewLRU(sets, ways))
		return rec
	})
	min = RunSingle(cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
		return belady.NewMIN(sets, ways, rec.Stream())
	})
	min.Segment = gen.Name()
	return lru, min
}
