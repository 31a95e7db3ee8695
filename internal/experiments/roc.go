package experiments

import (
	"context"

	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// ROCTable holds the data behind Figures 1 and 8: ROC curves for the three
// comparable reuse predictors over the single-thread suite.
type ROCTable struct {
	// Predictors in presentation order: sdbp, perceptron, mpppb.
	Predictors []string
	// Curves[predictor] is the ROC over the pooled samples of all
	// segments run.
	Curves map[string][]stats.ROCPoint
	// AUC[predictor] is the area under the curve.
	AUC map[string]float64
	// TPRAt30[predictor] is the true-positive rate at a 30% false-positive
	// rate, inside the paper's bypass-relevant 25-31% band (Figure 8(b)).
	TPRAt30 map[string]float64
	// Samples[predictor] counts pooled prediction outcomes.
	Samples map[string]int
	// FailedCells lists journal keys of (predictor, segment) cells that
	// failed permanently under Run.KeepGoing; their samples are absent
	// from the pooled curves.
	FailedCells []string
}

// DefaultROCPredictors lists the predictors with comparable confidences.
func DefaultROCPredictors() []string { return []string{"sdbp", "perceptron", "mpppb"} }

// ROCCurves runs measurement-only simulations for each predictor over the
// given segments, pooling (confidence, outcome) samples into one curve per
// predictor. The paper averages per-benchmark curves; pooling weights
// benchmarks by their access counts instead, which preserves the ordering
// the figure demonstrates.
//
// The (predictor, segment) grid flattens into one cell list so all
// predictors' segments share the pool. A cell is its samples' count table
// (stats.ROCCounts), which is all a curve depends on, so the journal and
// the pooled curves hold one entry per distinct confidence rather than
// one per sample; tables pool by addition, so the curves are
// byte-identical at any worker count and across resumes.
func ROCCurves(cfg sim.Config, predictors []string, segments []workload.SegmentID, r *Run) (*ROCTable, error) {
	if predictors == nil {
		predictors = DefaultROCPredictors()
	}
	if segments == nil {
		segments = workload.Segments()
	}
	t := &ROCTable{
		Predictors: predictors,
		Curves:     map[string][]stats.ROCPoint{},
		AUC:        map[string]float64{},
		TPRAt30:    map[string]float64{},
		Samples:    map[string]int{},
	}
	cfs := make([]sim.ConfidenceFactory, len(predictors))
	keys := make([]string, 0, len(predictors)*len(segments))
	for pi, pred := range predictors {
		cf, err := sim.Confidence(pred)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		cfs[pi] = cf
		for _, id := range segments {
			keys = append(keys, cellKey("roc", cfg, pred, id, 0))
		}
	}
	cells, cellErrs, err := RunCells(r, keys, func(_ context.Context, i int) (stats.ROCCounts, error) {
		pi, si := i/len(segments), i%len(segments)
		gen := workload.NewGenerator(segments[si], workload.CoreBase(0))
		return stats.CountROC(sim.RunROC(cfg, gen, cfs[pi])), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pred := range predictors {
		pool := stats.ROCCounts{}
		for si := range segments {
			i := pi*len(segments) + si
			if cellErrs[i] != nil {
				t.FailedCells = append(t.FailedCells, keys[i])
				continue
			}
			pool.Add(cells[i])
		}
		curve := pool.Curve()
		t.Curves[pred] = curve
		t.AUC[pred] = stats.AUC(curve)
		t.TPRAt30[pred] = stats.TPRAtFPR(curve, 0.30)
		t.Samples[pred] = pool.Samples()
	}
	return t, nil
}
