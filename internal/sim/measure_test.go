package sim

import (
	"testing"

	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// allocSink keeps the test's deliberate allocations observable.
var allocSink []byte

// TestAllocsPerAccessGatedToSerialMeasurements is the regression test for
// the malloc-attribution bug: startMeasure reads the process-wide malloc
// counter, so under -j8 every cell's AllocsPerAccess used to absorb its
// neighbors' allocations. Overlapping measurement windows must now report
// -1 ("not measured") in every overlap pattern, while non-overlapping
// windows keep the real figure.
func TestAllocsPerAccessGatedToSerialMeasurements(t *testing.T) {
	// Solo window: attributable, reports a real (non-negative) figure.
	m := startMeasure()
	allocSink = make([]byte, 1<<16)
	r := Result{LLCAccesses: 1000}
	m(&r)
	if r.AllocsPerAccess < 0 {
		t.Fatalf("solo measurement AllocsPerAccess = %g, want >= 0", r.AllocsPerAccess)
	}

	// Nested overlap: the second window starts while the first is open.
	// The first must notice the intruder (overlap events advanced), the
	// second started overlapped; both report -1.
	m1 := startMeasure()
	m2 := startMeasure()
	r1, r2 := Result{LLCAccesses: 1}, Result{LLCAccesses: 1}
	m2(&r2)
	m1(&r1)
	if r1.AllocsPerAccess != -1 {
		t.Errorf("outer overlapped window AllocsPerAccess = %g, want -1", r1.AllocsPerAccess)
	}
	if r2.AllocsPerAccess != -1 {
		t.Errorf("inner overlapped window AllocsPerAccess = %g, want -1", r2.AllocsPerAccess)
	}

	// Back-to-back windows never overlap: both stay attributable, proving
	// the gate resets rather than latching.
	a := startMeasure()
	ra := Result{LLCAccesses: 1}
	a(&ra)
	b := startMeasure()
	rb := Result{LLCAccesses: 1}
	b(&rb)
	if ra.AllocsPerAccess < 0 || rb.AllocsPerAccess < 0 {
		t.Errorf("sequential windows report (%g, %g), want both >= 0", ra.AllocsPerAccess, rb.AllocsPerAccess)
	}

	// Every driver measures through startMeasure, so a window open around
	// any of them sees the overlap rather than taking in its allocations
	// unflagged, and each driver's window feeds the measured-access
	// counter and the access-rate gauge.
	cfg := shortCfg()
	cfg.Warmup, cfg.Measure = 10_000, 20_000
	mcfg := MultiCoreConfig()
	mcfg.Warmup, mcfg.Measure = 10_000, 20_000
	mix := workload.Mixes(1, workload.DefaultMixSeed)[0]
	cf, err := Confidence("sdbp")
	if err != nil {
		t.Fatal(err)
	}
	gen := func() trace.Generator { return workload.NewGenerator(seg("gcc_like", 0), 0) }
	for _, d := range []struct {
		name string
		run  func()
	}{
		{"RunSingle", func() { RunSingle(cfg, gen(), newLRU) }},
		{"RunFastMPKI", func() { RunFastMPKI(cfg, gen(), newLRU) }},
		{"RunMulti", func() { RunMulti(mcfg, mix, newLRU) }},
		{"RunROC", func() { RunROC(cfg, gen(), cf) }},
	} {
		acc0 := mMeasuredAccesses.Value()
		mAccessRate.Set(0)
		outer := startMeasure()
		d.run()
		added, rate := mMeasuredAccesses.Value()-acc0, mAccessRate.Value()
		r := Result{LLCAccesses: 1}
		outer(&r)
		if r.AllocsPerAccess != -1 {
			t.Errorf("window around %s: AllocsPerAccess = %g, want -1", d.name, r.AllocsPerAccess)
		}
		if added == 0 {
			t.Errorf("%s added no measured LLC accesses to mpppb_sim_llc_accesses_total", d.name)
		}
		if rate <= 0 {
			t.Errorf("%s left the access-rate gauge unset", d.name)
		}
	}
}
