// Package mpppb is the public facade of the multiperspective reuse
// prediction library, a reproduction of Jiménez & Teran, "Multiperspective
// Reuse Prediction", MICRO 2017.
//
// The facade exposes the pieces a downstream user needs without reaching
// into internal packages: machine configurations, the benchmark suite,
// policy selection by name, and the simulation drivers. For example:
//
//	cfg := mpppb.SingleThreadConfig()
//	res, err := mpppb.Run(cfg, mpppb.Segment("mcf_like", 0), "mpppb")
//
// Policies available by name: lru, plru, srrip, drrip, bip, dip, mdpp,
// dyn-mdpp, random, ship, sdbp, perceptron, hawkeye, mpppb (single-thread
// configuration over MDPP), mpppb-srrip (multi-core configuration over
// SRRIP; -1b and -table2 variants select alternate feature sets), hybrid
// and hybrid-srrip (the MPPPB+Hawkeye combination of Section 6.2.1's
// future work), and min (Bélády's optimal with bypass, single-thread
// only, simulated in two passes).
package mpppb

import (
	"fmt"
	"io"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/experiments"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// Re-exported configuration and result types.
type (
	// Config describes a simulated machine; see sim.Config.
	Config = sim.Config
	// Result summarizes a single-thread run; see sim.Result.
	Result = sim.Result
	// MultiResult summarizes a 4-core run; see sim.MultiResult.
	MultiResult = sim.MultiResult
	// SegmentID names one benchmark segment.
	SegmentID = workload.SegmentID
	// Mix is one 4-segment multi-programmed workload.
	Mix = workload.Mix
	// Feature is one parameterized predictor feature.
	Feature = core.Feature
	// ROCPoint is one point of a predictor accuracy curve.
	ROCPoint = stats.ROCPoint
)

// SingleThreadConfig returns the paper's single-thread machine (2MB LLC).
func SingleThreadConfig() Config { return sim.SingleThreadConfig() }

// MultiCoreConfig returns the paper's 4-core machine (8MB shared LLC).
func MultiCoreConfig() Config { return sim.MultiCoreConfig() }

// Segment constructs a segment identifier.
func Segment(bench string, seg int) SegmentID { return SegmentID{Bench: bench, Seg: seg} }

// Benchmarks lists the suite's benchmark names.
func Benchmarks() []string { return workload.Benchmarks() }

// Segments lists all 99 suite segments.
func Segments() []SegmentID { return workload.Segments() }

// Mixes generates deterministic 4-core workload mixes (see workload.Mixes).
func Mixes(n int, seed uint64) []Mix { return workload.Mixes(n, seed) }

// Policies lists the registered policy names (plus "min", which is handled
// specially by Run).
func Policies() []string { return append(sim.PolicyNames(), "min") }

// Run simulates one segment under the named policy on the single-thread
// machine. The policy name "min" triggers the two-pass Bélády simulation.
func Run(cfg Config, id SegmentID, policyName string) (Result, error) {
	return sim.RunNamed(cfg, workload.NewGenerator(id, workload.CoreBase(0)), policyName, nil)
}

// RunVerbose is Run for the MPPPB policies ("mpppb", "mpppb-srrip"),
// additionally returning a human-readable report of the policy's decision
// counters and trained per-feature weight statistics (the Section 5.4-style
// feature analysis).
func RunVerbose(cfg Config, id SegmentID, policyName string) (Result, string, error) {
	var params core.Params
	switch policyName {
	case "mpppb":
		params = core.SingleThreadParams()
	case "mpppb-srrip":
		params = core.MultiCoreParams()
	default:
		return Result{}, "", fmt.Errorf("mpppb: RunVerbose supports mpppb and mpppb-srrip, not %q", policyName)
	}
	var pol *core.MPPPB
	gen := workload.NewGenerator(id, workload.CoreBase(0))
	res := sim.RunSingle(cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
		pol = core.NewMPPPB(sets, ways, params)
		return pol
	})
	info := pol.Stats().String() + "\n" + core.FormatWeightStats(pol.Predictor().WeightStats())
	return res, info, nil
}

// RunMix simulates a 4-core mix under the named policy on the multi-core
// machine.
func RunMix(cfg Config, mix Mix, policyName string) (MultiResult, error) {
	pf, err := sim.Policy(policyName)
	if err != nil {
		return MultiResult{}, err
	}
	return sim.RunMulti(cfg, mix, pf), nil
}

// ROC runs a measurement-only simulation for a confidence-reporting
// predictor ("sdbp", "perceptron", or "mpppb") on one segment and returns
// its accuracy curve.
func ROC(cfg Config, id SegmentID, predictorName string) ([]ROCPoint, error) {
	samples, err := ROCSamples(cfg, id, predictorName)
	if err != nil {
		return nil, err
	}
	return stats.ROC(samples), nil
}

// ROCSamples returns the raw (confidence, outcome) samples for a predictor
// on one segment, for callers aggregating curves across benchmarks.
func ROCSamples(cfg Config, id SegmentID, predictorName string) ([]stats.ROCSample, error) {
	cf, err := sim.Confidence(predictorName)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(id, workload.CoreBase(0))
	return sim.RunROC(cfg, gen, cf), nil
}

// FeatureSearchOptions configures FeatureSearch, the Section 5 feature-
// development flow: random feature sets evaluated by fast MPKI simulation,
// then hill climbing.
type FeatureSearchOptions struct {
	// RandomSets is the size of the initial random population.
	RandomSets int
	// ClimbSteps bounds the hill-climbing proposals.
	ClimbSteps int
	// Training is the number of suite segments used as the training set.
	Training int
	// Warmup and Measure are per-evaluation instruction budgets.
	Warmup, Measure uint64
	// Seed makes the search reproducible.
	Seed uint64
}

// FeatureSearchResult is the outcome of a feature search; see
// experiments.Fig3Result for field documentation.
type FeatureSearchResult = experiments.Fig3Result

// FeatureSearch runs the paper's feature-development methodology
// (Section 5.1, Figure 3) at the configured budget.
func FeatureSearch(opts FeatureSearchOptions) (*FeatureSearchResult, error) {
	cfg := sim.SingleThreadConfig()
	if opts.Warmup > 0 {
		cfg.Warmup = opts.Warmup
	}
	if opts.Measure > 0 {
		cfg.Measure = opts.Measure
	}
	training := experiments.TrainingSegments(opts.Training)
	return experiments.Fig3FeatureSearch(cfg, training, opts.RandomSets, opts.ClimbSteps, opts.Seed, nil)
}

// NewGenerator exposes suite trace generators for custom drivers.
func NewGenerator(id SegmentID, base uint64) trace.Generator {
	return workload.NewGenerator(id, base)
}

// Trace I/O, re-exported so downstream users can capture and replay binary
// traces (including externally collected ones) without reaching into
// internal packages. See the trace package for the file format.
type (
	// TraceRecord is one memory instruction of a trace.
	TraceRecord = trace.Record
	// TraceWriter streams records to a binary trace file.
	TraceWriter = trace.Writer
)

// NewTraceWriter begins a binary trace on w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// ReadTrace decodes a whole binary trace into memory.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.ReadAll(r) }

// RunTrace replays captured records through the single-thread machine
// under the named policy. The replay wraps around when the run needs more
// instructions than the trace holds. Internally the records are transposed
// once into column-major form so the simulator's batch cursor refills by
// bulk column copies.
func RunTrace(cfg Config, name string, recs []TraceRecord, policyName string) (Result, error) {
	return sim.RunNamed(cfg, trace.NewColumnarReplay(name, trace.ColumnsOf(recs)), policyName, nil)
}
