package sim

import (
	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
)

// ConfidencePredictor is a replacement policy that can also report, for an
// arbitrary access, its confidence that the referenced block is dead
// (higher = more confidently dead). SDBP, Perceptron and the
// multiperspective predictor all satisfy this; Hawkeye deliberately does
// not (Section 6.3 explains why its classification is not comparable).
type ConfidencePredictor interface {
	cache.ReplacementPolicy
	// Predict returns the dead-block confidence for the access, without
	// side effects on predictor state. insert reports whether the access
	// is an insertion (a miss) — input to the predictor's insert feature.
	Predict(a cache.Access, set int, insert bool) int
}

// ConfidenceFactory builds a ConfidencePredictor for an LLC geometry.
type ConfidenceFactory func(sets, ways int) ConfidencePredictor

// rocProbe manages the LLC with plain LRU while letting a predictor train
// normally and recording (confidence, outcome) pairs: "we modify the
// simulator to make the prediction but not apply the optimization so that
// we can measure the accuracy of the predictors without feedback from
// their decisions affecting the measurement" (Section 6.3).
type rocProbe struct {
	lru     *policy.LRU
	pred    ConfidencePredictor
	ways    int
	pending []rocPending // sets*ways
	samples []stats.ROCSample
}

type rocPending struct {
	valid      bool
	confidence int
}

func newROCProbe(sets, ways int, pred ConfidencePredictor) *rocProbe {
	return &rocProbe{
		lru:     policy.NewLRU(sets, ways),
		pred:    pred,
		ways:    ways,
		pending: make([]rocPending, sets*ways),
	}
}

// resolve closes the pending prediction for a frame with the given ground
// truth.
func (p *rocProbe) resolve(set, way int, dead bool) {
	pd := &p.pending[set*p.ways+way]
	if pd.valid {
		p.samples = append(p.samples, stats.ROCSample{Confidence: pd.confidence, Dead: dead})
		pd.valid = false
	}
}

// open records a fresh prediction for a frame.
func (p *rocProbe) open(set, way, confidence int) {
	p.pending[set*p.ways+way] = rocPending{valid: true, confidence: confidence}
}

// Name implements cache.ReplacementPolicy.
func (p *rocProbe) Name() string { return "roc-probe(" + p.pred.Name() + ")" }

// Hit implements cache.ReplacementPolicy.
func (p *rocProbe) Hit(set, way int, a cache.Access) {
	if a.Type != trace.Writeback {
		// The block was reused: the previous prediction's truth is "live".
		p.resolve(set, way, false)
		p.open(set, way, p.pred.Predict(a, set, false))
	}
	p.pred.Hit(set, way, a)
	p.lru.Hit(set, way, a)
}

// Victim implements cache.ReplacementPolicy: always LRU's choice, never
// bypass — predictions must not steer the cache.
func (p *rocProbe) Victim(set int, a cache.Access) (int, bool) {
	way, _ := p.lru.Victim(set, a)
	return way, false
}

// Fill implements cache.ReplacementPolicy.
func (p *rocProbe) Fill(set, way int, a cache.Access) {
	if a.Type != trace.Writeback {
		p.open(set, way, p.pred.Predict(a, set, true))
	}
	p.pred.Fill(set, way, a)
	p.lru.Fill(set, way, a)
}

// Evict implements cache.ReplacementPolicy.
func (p *rocProbe) Evict(set, way int, blockAddr uint64) {
	// Evicted without an intervening hit: the prediction's truth is "dead".
	p.resolve(set, way, true)
	p.pred.Evict(set, way, blockAddr)
	p.lru.Evict(set, way, blockAddr)
}

var _ cache.ReplacementPolicy = (*rocProbe)(nil)

// RunROC runs a measurement-only simulation and returns the collected
// (confidence, outcome) samples for the predictor. Samples are collected
// only during the measurement window; predictions still pending at the end
// are discarded.
func RunROC(cfg Config, gen trace.Generator, cf ConfidenceFactory) []stats.ROCSample {
	var probe *rocProbe
	pf := func(sets, ways int) cache.ReplacementPolicy {
		probe = newROCProbe(sets, ways, cf(sets, ways))
		return probe
	}
	llc := NewLLC(cfg, pf)
	h := buildHierarchy(cfg, 0, llc)
	checks := attachChecks(cfg, llc, h)

	gen.Reset()
	rd := newBatchReader(gen)
	endWarmup := startPhase(mWarmupPhases)
	now, _ := runUntimed(rd, h, 0, cfg.Warmup)
	endWarmup()
	probe.samples = probe.samples[:0]
	endMeasure := startPhase(mMeasurePhases)
	runUntimed(rd, h, now, cfg.Measure)
	endMeasure()
	finishChecks(checks)
	return probe.samples
}
