package experiments

import (
	"slices"

	"mpppb/internal/core"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// Fig9Result is the uniform-associativity experiment (Figure 9): fixing
// every feature's A parameter to the same value 1..18 versus the original
// per-feature associativities.
type Fig9Result struct {
	// UniformWS[a-1] is the geomean weighted speedup with every A forced
	// to a.
	UniformWS [core.MaxA]float64
	// OriginalWS is the geomean weighted speedup of the unmodified set.
	OriginalWS float64
}

// Fig9UniformAssociativity sweeps the uniform A parameter over the
// multi-programmed feature set (Section 6.4, Figure 9) as one grid: LRU,
// the original set and every uniform A on every mix. The original set is
// core.MultiCoreParams(), which the registry names mpppb-srrip, so it is
// declared by that name and shares Figure 4's cells.
func Fig9UniformAssociativity(cfg sim.Config, mixes []workload.Mix, r *Run) (*Fig9Result, error) {
	orig := r.named("mpppb-srrip")
	policies := []Policy{orig}
	for a := 1; a <= core.MaxA; a++ {
		params := core.MultiCoreParams() // a fresh feature slice
		for i := range params.Features {
			params.Features[i].A = a
		}
		policies = append(policies, WithParams(params))
	}
	g, err := runMultiGrid(cfg, policies, mixes, r)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{OriginalWS: g.geomeanWS(orig, mixes, r)}
	for a := range res.UniformWS {
		res.UniformWS[a] = g.geomeanWS(policies[a+1], mixes, r)
	}
	return res, nil
}

// Fig10Result is the leave-one-feature-out ablation (Figure 10) over
// Table 1(a)'s single-thread feature set, evaluated (as in the paper) on
// multi-programmed workloads.
type Fig10Result struct {
	Features []core.Feature
	// OriginalWS is the geomean weighted speedup with the full set.
	OriginalWS float64
	// OmittedWS[i] is the geomean weighted speedup with Features[i]
	// removed.
	OmittedWS []float64
}

// Fig10FeatureAblation removes each feature in turn and measures the
// multi-programmed weighted speedup, as one grid: LRU, the full set and
// every omission on every mix. A feature listed twice (Table 1(a) lists
// pc(17,6,20,0,1) twice) leaves the same set whichever copy is omitted,
// and that set's cells run once.
func Fig10FeatureAblation(cfg sim.Config, features []core.Feature, mixes []workload.Mix, r *Run) (*Fig10Result, error) {
	if features == nil {
		features = core.SingleThreadSetA()
	}
	params := core.MultiCoreParams()
	params.Features = features
	policies := []Policy{WithParams(params)}
	for i := range features {
		p := params
		p.Features = slices.Delete(slices.Clone(features), i, i+1)
		policies = append(policies, WithParams(p))
	}
	g, err := runMultiGrid(cfg, policies, mixes, r)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Features: features, OmittedWS: make([]float64, len(features))}
	res.OriginalWS = g.geomeanWS(policies[0], mixes, r)
	for i := range features {
		res.OmittedWS[i] = g.geomeanWS(policies[i+1], mixes, r)
	}
	return res, nil
}

// Table3Row reports, for one feature, the segment where removing it
// increases MPKI the most (Table 3's per-feature analysis).
type Table3Row struct {
	Feature     core.Feature
	Segment     workload.SegmentID
	MPKIWith    float64
	MPKIWithout float64
	// PctIncrease is the MPKI increase from removing the feature, in
	// percent.
	PctIncrease float64
}

// Table3FeatureBenefit runs the leave-one-out experiment per segment over
// the given feature set (the paper uses Table 1(b) on SPEC CPU 2017
// simpoints; here the synthetic suite stands in) and reports, for each
// feature, the segment it helps most. The full set and every omission on
// every segment are one grid; the default set, Table 1(b), is the
// registry's mpppb, declared by that name to share fig3's and figadapt's
// cells.
func Table3FeatureBenefit(cfg sim.Config, features []core.Feature, segments []workload.SegmentID, r *Run) ([]Table3Row, error) {
	params := core.SingleThreadParams()
	full := r.named("mpppb")
	if features == nil {
		features = params.Features
	} else {
		params.Features = features
		full = WithParams(params)
	}
	if segments == nil {
		segments = workload.Segments()
	}
	variants := []Policy{full}
	for i := range features {
		p := params
		p.Features = slices.Delete(slices.Clone(features), i, i+1)
		variants = append(variants, WithParams(p))
	}
	var g grid
	keys := make([][]string, len(segments)) // per segment, a key per variant
	for si, id := range segments {
		for _, p := range variants {
			keys[si] = append(keys[si], g.fast(cfg, p, id, 0))
		}
	}
	if err := g.run(r); err != nil {
		return nil, err
	}

	// Fold the best segment per feature in segment order, so ties resolve
	// to the earliest. A segment with a failed cell never wins.
	rows := make([]Table3Row, len(features))
	for i := range rows {
		rows[i].Feature = features[i]
		rows[i].PctIncrease = -1
	}
	for si, id := range segments {
		mpkis, err := g.mpkis(keys[si])
		if err != nil {
			continue
		}
		with := mpkis[0]
		for i, without := range mpkis[1:] {
			pct := 0.0
			if with > 0 {
				pct = 100 * (without - with) / with
			} else if without > 0 {
				pct = 100
			}
			if pct > rows[i].PctIncrease {
				rows[i] = Table3Row{
					Feature:     features[i],
					Segment:     id,
					MPKIWith:    with,
					MPKIWithout: without,
					PctIncrease: pct,
				}
			}
		}
	}
	return rows, nil
}
