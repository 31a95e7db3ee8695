package sim

// Regression tests for the untimed drivers' clock: the "now" each LLC
// access carries must never move backward across the warmup→measure
// boundary (it used to reset to 0 with the loop counter, sending time
// backward for any policy that orders by it).

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/workload"
)

// clockProbe wraps LRU and records the largest access timestamp seen,
// failing the test on any backward step.
type clockProbe struct {
	*policy.LRU
	t    *testing.T
	last uint64
	seen int
}

func (p *clockProbe) check(a cache.Access) {
	p.seen++
	if a.Now < p.last {
		p.t.Fatalf("access %d: clock moved backward (%d after %d)", p.seen, a.Now, p.last)
	}
	p.last = a.Now
}

func (p *clockProbe) Hit(set, way int, a cache.Access) {
	p.check(a)
	p.LRU.Hit(set, way, a)
}

func (p *clockProbe) Fill(set, way int, a cache.Access) {
	p.check(a)
	p.LRU.Fill(set, way, a)
}

func TestRunFastMPKIClockMonotonic(t *testing.T) {
	probe := &clockProbe{t: t}
	cfg := shortCfg()
	cfg.Warmup, cfg.Measure = 50_000, 150_000
	gen := workload.NewGenerator(seg("gcc_like", 0), workload.CoreBase(0))
	RunFastMPKI(cfg, gen, func(sets, ways int) cacheReplacementPolicy {
		probe.LRU = policy.NewLRU(sets, ways)
		return probe
	})
	if probe.seen == 0 {
		t.Fatal("probe saw no accesses")
	}
	if probe.last < cfg.Warmup {
		t.Fatalf("clock ended at %d, below the warmup length %d: measure phase restarted time", probe.last, cfg.Warmup)
	}
}

// clockCheckPred wraps a ConfidencePredictor with the same backward-step
// check: RunROC's probe forwards every access (with its timestamp) to the
// trained predictor.
type clockCheckPred struct {
	ConfidencePredictor
	t    *testing.T
	last uint64
	seen int
}

func (p *clockCheckPred) check(a cache.Access) {
	p.seen++
	if a.Now < p.last {
		p.t.Fatalf("access %d: clock moved backward (%d after %d)", p.seen, a.Now, p.last)
	}
	p.last = a.Now
}

func (p *clockCheckPred) Hit(set, way int, a cache.Access) {
	p.check(a)
	p.ConfidencePredictor.Hit(set, way, a)
}

func (p *clockCheckPred) Fill(set, way int, a cache.Access) {
	p.check(a)
	p.ConfidencePredictor.Fill(set, way, a)
}

func TestRunROCClockMonotonic(t *testing.T) {
	cf, err := Confidence("mpppb")
	if err != nil {
		t.Fatal(err)
	}
	probe := &clockCheckPred{t: t}
	cfg := shortCfg()
	cfg.Warmup, cfg.Measure = 50_000, 150_000
	gen := workload.NewGenerator(seg("gcc_like", 0), workload.CoreBase(0))
	samples := RunROC(cfg, gen, func(sets, ways int) ConfidencePredictor {
		probe.ConfidencePredictor = cf(sets, ways)
		return probe
	})
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	if probe.seen == 0 {
		t.Fatal("probe saw no accesses")
	}
	if probe.last < cfg.Warmup {
		t.Fatalf("clock ended at %d, below the warmup length %d: measure phase restarted time", probe.last, cfg.Warmup)
	}
}
