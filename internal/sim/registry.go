package sim

import (
	"fmt"
	"sort"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
	"mpppb/internal/predictor"
)

// newLRU is LRU as a PolicyFactory: the lru policy and the policy of the
// standalone-IPC baselines.
func newLRU(sets, ways int) cache.ReplacementPolicy { return policy.NewLRU(sets, ways) }

// registry maps policy names to factories.
var registry = map[string]PolicyFactory{}

// Register adds a named policy factory. It panics on duplicates so
// conflicting registrations fail loudly at init time.
func Register(name string, pf PolicyFactory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sim: duplicate policy %q", name))
	}
	registry[name] = pf
}

// Policy looks up a registered policy factory by name.
func Policy(name string) (PolicyFactory, error) {
	pf, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown policy %q (have %v)", name, PolicyNames())
	}
	return pf, nil
}

// PolicyNames lists registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("lru", newLRU)
	Register("plru", func(sets, ways int) cache.ReplacementPolicy { return policy.NewTreePLRU(sets, ways) })
	Register("srrip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewSRRIP(sets, ways) })
	Register("drrip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewDRRIP(sets, ways, 1) })
	Register("mdpp", func(sets, ways int) cache.ReplacementPolicy { return policy.NewMDPP(sets, ways) })
	Register("random", func(sets, ways int) cache.ReplacementPolicy { return policy.NewRandom(ways, 1) })
	Register("bip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewBIP(sets, ways, 1) })
	Register("dip", func(sets, ways int) cache.ReplacementPolicy { return policy.NewDIP(sets, ways, 1) })
	Register("dyn-mdpp", func(sets, ways int) cache.ReplacementPolicy { return policy.NewDynMDPP(sets, ways) })
	Register("sdbp", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewSDBP(sets, ways) })
	Register("perceptron", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewPerceptron(sets, ways) })
	Register("hawkeye", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewHawkeye(sets, ways) })
	Register("mpppb", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.SingleThreadParams())
	})
	Register("mpppb-srrip", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.MultiCoreParams())
	})
	Register("ship", func(sets, ways int) cache.ReplacementPolicy { return predictor.NewSHiP(sets, ways) })
	// mpppb-adaptive duels threshold configurations online in sampled
	// leader sets (core/adaptive.go) instead of fixing them offline; the
	// -srrip variant runs the duel over the multi-core machine
	// configuration.
	Register("mpppb-adaptive", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.AdaptiveSingleThreadParams())
	})
	Register("mpppb-adaptive-srrip", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.AdaptiveMultiCoreParams())
	})
	// mpppb-srrip-1b runs the multi-core machine configuration with the
	// single-thread Table 1(b) features, the cross-set observation of
	// Section 6.4 ("this set of features ... provides reasonable
	// performance for the multi-programmed workloads").
	Register("mpppb-srrip-1b", func(sets, ways int) cache.ReplacementPolicy {
		p := core.MultiCoreParams()
		p.Features = core.SingleThreadSetB()
		return core.NewMPPPB(sets, ways, p)
	})
	// mpppb-srrip-table2 runs the paper's published multi-programmed
	// feature set (Table 2, with two OCR-normalized entries).
	Register("mpppb-srrip-table2", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, core.Table2Params())
	})
	Register("hybrid", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewHybrid(sets, ways, core.SingleThreadParams())
	})
	Register("hybrid-srrip", func(sets, ways int) cache.ReplacementPolicy {
		return core.NewHybrid(sets, ways, core.MultiCoreParams())
	})
}

// PolicyWith is Policy with the mpppb-adaptive policies dueling cands
// instead of their default lineup; nil cands is Policy. The candidates
// are checked against the policy's threshold invariants here, so a bad
// -duel spec fails with its cause instead of panicking in every cell.
func PolicyWith(name string, cands []core.ThresholdSet) (PolicyFactory, error) {
	params, adaptive := adaptiveParams[name]
	if !adaptive || cands == nil {
		return Policy(name)
	}
	p := params()
	p.Duel.Candidates = cands
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s duel candidates: %v", name, err)
	}
	return func(sets, ways int) cache.ReplacementPolicy { return core.NewMPPPB(sets, ways, p) }, nil
}

// Duels reports whether name is a set-dueling MPPPB policy, one whose
// candidates PolicyWith replaces.
func Duels(name string) bool {
	_, ok := adaptiveParams[name]
	return ok
}

// adaptiveParams are the params of the set-dueling MPPPB policies, whose
// candidates PolicyWith can replace.
var adaptiveParams = map[string]func() core.Params{
	"mpppb-adaptive":       core.AdaptiveSingleThreadParams,
	"mpppb-adaptive-srrip": core.AdaptiveMultiCoreParams,
}

// Confidence looks up a ConfidenceFactory for the predictors whose
// confidences are comparable on an ROC curve (Section 6.3).
func Confidence(name string) (ConfidenceFactory, error) {
	switch name {
	case "sdbp":
		return func(sets, ways int) ConfidencePredictor { return predictor.NewSDBP(sets, ways) }, nil
	case "perceptron":
		return func(sets, ways int) ConfidencePredictor { return predictor.NewPerceptron(sets, ways) }, nil
	case "mpppb":
		return func(sets, ways int) ConfidencePredictor {
			return core.NewMPPPB(sets, ways, core.SingleThreadParams())
		}, nil
	default:
		return nil, fmt.Errorf("sim: %q does not expose comparable confidences (want sdbp, perceptron, or mpppb)", name)
	}
}
