package experiments

import (
	"context"
	"fmt"
	"math"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/parallel"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// mpppbFactory builds an MPPPB policy factory from explicit parameters.
func mpppbFactory(params core.Params) sim.PolicyFactory {
	return func(sets, ways int) cache.ReplacementPolicy {
		return core.NewMPPPB(sets, ways, params)
	}
}

// lruWSCache memoizes per-mix LRU weighted-speedup baselines across the
// sweep points of an ablation (keyed by mix index — every call of one
// experiment shares one fixed mix list). Single-flight, so parallel sweep
// points never duplicate an LRU baseline run.
type lruWSCache = parallel.Memo[int, float64]

// multiCoreGeomeanWS computes the geometric-mean LRU-normalized weighted
// speedup of a policy over the given mixes — the y-axis of Figures 9 and
// 10. Mixes fan across the worker pool; per-mix speedups merge in input
// order so the geomean accumulates in the serial sequence. Callers
// sweeping configurations over the same mixes pass shared singles/lruWS
// caches so baselines are computed once per sweep, not once per point,
// and a distinct keyPrefix per sweep point so journal keys never collide.
// A failed mix contributes NaN, making the point's geomean NaN.
func multiCoreGeomeanWS(cfg sim.Config, pf sim.PolicyFactory, mixes []workload.Mix, singles *sim.SingleIPCCache, lruWS *lruWSCache, r *Run, keyPrefix string) (float64, error) {
	lruPF := r.mustPolicy("lru")
	keys := make([]string, len(mixes))
	for i, mix := range mixes {
		keys[i] = keyPrefix + "mix=" + mix.String()
	}
	speedups, cellErrs, err := RunCells(r, keys, func(_ context.Context, i int) (float64, error) {
		mix := mixes[i]
		single := singles.For(mix)
		base := lruWS.Do(i, func() float64 {
			return sim.RunMulti(cfg, mix, lruPF).WeightedSpeedup(single)
		})
		res := sim.RunMulti(cfg, mix, pf)
		return res.WeightedSpeedup(single) / base, nil
	})
	if err != nil {
		return 0, err
	}
	for i, e := range cellErrs {
		if e != nil {
			speedups[i] = math.NaN()
		}
	}
	return r.geoMean(speedups), nil
}

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
// multi-programmed feature set (Section 6.4, Figure 9).
func Fig9UniformAssociativity(cfg sim.Config, mixes []workload.Mix, r *Run) (*Fig9Result, error) {
	singles := sim.NewSingleIPCCache(cfg)
	lruWS := &lruWSCache{}
	res := &Fig9Result{}

	base := core.MultiCoreParams()
	r.prog().log("fig9 original (variable A)")
	var err error
	res.OriginalWS, err = multiCoreGeomeanWS(cfg, mpppbFactory(base), mixes, singles, lruWS, r, "fig9/orig/")
	if err != nil {
		return nil, err
	}

	for a := 1; a <= core.MaxA; a++ {
		r.prog().log("fig9 uniform A=%d", a)
		params := core.MultiCoreParams()
		feats := make([]core.Feature, len(params.Features))
		copy(feats, params.Features)
		for i := range feats {
			feats[i].A = a
		}
		params.Features = feats
		res.UniformWS[a-1], err = multiCoreGeomeanWS(cfg, mpppbFactory(params), mixes, singles, lruWS, r, fmt.Sprintf("fig9/a=%d/", a))
		if err != nil {
			return nil, err
		}
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
// multi-programmed weighted speedup.
func Fig10FeatureAblation(cfg sim.Config, features []core.Feature, mixes []workload.Mix, r *Run) (*Fig10Result, error) {
	if features == nil {
		features = core.SingleThreadSetA()
	}
	singles := sim.NewSingleIPCCache(cfg)
	lruWS := &lruWSCache{}

	res := &Fig10Result{Features: features, OmittedWS: make([]float64, len(features))}
	params := core.MultiCoreParams()
	params.Features = features
	r.prog().log("fig10 original")
	var err error
	res.OriginalWS, err = multiCoreGeomeanWS(cfg, mpppbFactory(params), mixes, singles, lruWS, r, "fig10/orig/")
	if err != nil {
		return nil, err
	}

	for i := range features {
		r.prog().log("fig10 omit %s", features[i])
		sub := make([]core.Feature, 0, len(features)-1)
		sub = append(sub, features[:i]...)
		sub = append(sub, features[i+1:]...)
		p := params
		p.Features = sub
		res.OmittedWS[i], err = multiCoreGeomeanWS(cfg, mpppbFactory(p), mixes, singles, lruWS, r, fmt.Sprintf("fig10/omit=%d/", i))
		if err != nil {
			return nil, err
		}
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
// feature, the segment it helps most.
func Table3FeatureBenefit(cfg sim.Config, features []core.Feature, segments []workload.SegmentID, r *Run) ([]Table3Row, error) {
	if features == nil {
		features = core.SingleThreadSetB()
	}
	if segments == nil {
		segments = workload.Segments()
	}
	params := core.SingleThreadParams()
	params.Features = features

	rows := make([]Table3Row, len(features))
	for i := range rows {
		rows[i].Feature = features[i]
		rows[i].PctIncrease = -1
	}

	// Each segment's full+leave-one-out runs are independent; fan them
	// across the pool and fold the "best segment per feature" reduction in
	// segment order, so ties keep resolving to the earliest segment exactly
	// as the serial loop did.
	type segMPKIs struct {
		With    float64   `json:"with"`
		Without []float64 `json:"without"`
	}
	keys := make([]string, len(segments))
	for si, id := range segments {
		keys[si] = "table3/" + id.String()
	}
	runs, cellErrs, err := RunCells(r, keys, func(_ context.Context, si int) (segMPKIs, error) {
		id := segments[si]
		gen := workload.NewGenerator(id, workload.CoreBase(0))
		c := segMPKIs{Without: make([]float64, len(features))}
		c.With = sim.RunFastMPKI(cfg, gen, mpppbFactory(params)).MPKI
		for i := range features {
			sub := make([]core.Feature, 0, len(features)-1)
			sub = append(sub, features[:i]...)
			sub = append(sub, features[i+1:]...)
			p := params
			p.Features = sub
			c.Without[i] = sim.RunFastMPKI(cfg, gen, mpppbFactory(p)).MPKI
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for si, id := range segments {
		if cellErrs[si] != nil {
			// Failed segment: it simply never wins the per-feature argmax.
			continue
		}
		with := runs[si].With
		for i := range features {
			without := runs[si].Without[i]
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
