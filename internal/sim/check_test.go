package sim_test

// Tests of the -check verification layer at the simulation level: checked
// runs must complete real workload segments with zero divergences, produce
// byte-identical results to unchecked runs on every driver (the layer
// observes, never steers), and preserve the -j determinism guarantee.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// checkBudgets keeps checked runs fast while still cycling the LLC.
const (
	checkWarmup  = 20_000
	checkMeasure = 60_000
)

// TestCheckedRunClean runs every oracled LLC policy through a checked
// single-thread simulation of a real workload segment. Any divergence
// panics inside RunSingle and fails the test.
func TestCheckedRunClean(t *testing.T) {
	for _, name := range []string{"lru", "plru", "srrip", "mdpp", "mpppb", "mpppb-srrip", "drrip", "dip", "dyn-mdpp", "hybrid"} {
		t.Run(name, func(t *testing.T) {
			cfg := sim.SingleThreadConfig()
			cfg.Warmup, cfg.Measure = checkWarmup, checkMeasure
			cfg.Check = true
			pf, err := sim.Policy(name)
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewGenerator(workload.Segments()[0], 0)
			res := sim.RunSingle(cfg, gen, pf)
			if res.Instructions == 0 {
				t.Fatal("checked run measured no instructions")
			}
		})
	}
}

// TestCheckedRunCleanMulti runs a checked 4-core mix with the shared-LLC
// MPPPB-over-SRRIP configuration.
func TestCheckedRunCleanMulti(t *testing.T) {
	cfg := sim.MultiCoreConfig()
	cfg.Warmup, cfg.Measure = checkWarmup, checkMeasure
	cfg.Check = true
	pf, err := sim.Policy("mpppb-srrip")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mixes(1, workload.DefaultMixSeed)[0]
	res := sim.RunMulti(cfg, mix, pf)
	if res.LLCAccesses == 0 {
		t.Fatal("checked multi-core run made no LLC accesses")
	}
}

// TestCheckedMatchesUnchecked verifies the observation layer never steers
// the simulation: deterministic results of checked and unchecked runs are
// identical for every driver — the timed and fast single-core drivers, a
// 4-core mix, and the ROC samples.
func TestCheckedMatchesUnchecked(t *testing.T) {
	for _, name := range []string{"lru", "mpppb"} {
		t.Run(name, func(t *testing.T) {
			pf, err := sim.Policy(name)
			if err != nil {
				t.Fatal(err)
			}
			seg := workload.Segments()[1]
			run := func(check bool) (sim.Result, sim.Result) {
				cfg := sim.SingleThreadConfig()
				cfg.Warmup, cfg.Measure = checkWarmup, checkMeasure
				cfg.Check = check
				timed := sim.RunSingle(cfg, workload.NewGenerator(seg, 0), pf)
				fast := sim.RunFastMPKI(cfg, workload.NewGenerator(seg, 0), pf)
				return timed.Deterministic(), fast.Deterministic()
			}
			timedOff, fastOff := run(false)
			timedOn, fastOn := run(true)
			if timedOn != timedOff {
				t.Errorf("RunSingle: checked %+v != unchecked %+v", timedOn, timedOff)
			}
			if fastOn != fastOff {
				t.Errorf("RunFastMPKI: checked %+v != unchecked %+v", fastOn, fastOff)
			}
		})
	}
	t.Run("RunMulti/mpppb-srrip", func(t *testing.T) {
		pf, err := sim.Policy("mpppb-srrip")
		if err != nil {
			t.Fatal(err)
		}
		mix := workload.Mixes(1, workload.DefaultMixSeed)[0]
		run := func(check bool) sim.MultiResult {
			cfg := sim.MultiCoreConfig()
			cfg.Warmup, cfg.Measure = checkWarmup, checkMeasure
			cfg.Check = check
			return sim.RunMulti(cfg, mix, pf)
		}
		if on, off := run(true), run(false); on != off {
			t.Errorf("RunMulti: checked %+v != unchecked %+v", on, off)
		}
	})
	for _, name := range []string{"mpppb", "sdbp"} {
		t.Run("RunROC/"+name, func(t *testing.T) {
			cf, err := sim.Confidence(name)
			if err != nil {
				t.Fatal(err)
			}
			seg := workload.SegmentID{Bench: "mcf_like"}
			run := func(check bool) []stats.ROCSample {
				// Long enough for the LLC to resolve predictions.
				cfg := sim.SingleThreadConfig()
				cfg.Warmup, cfg.Measure = 100_000, 400_000
				cfg.Check = check
				return sim.RunROC(cfg, workload.NewGenerator(seg, 0), cf)
			}
			on, off := run(true), run(false)
			if len(off) == 0 {
				t.Fatal("unchecked run collected no samples")
			}
			if !slices.Equal(on, off) {
				t.Errorf("RunROC: checked run's %d samples differ from the unchecked run's %d", len(on), len(off))
			}
		})
	}
}

// TestCheckedDeterministicAcrossWorkers extends the -j determinism
// guarantee to checked mode: runs fanned across 8 workers produce the same
// results as the serial path with checking enabled.
func TestCheckedDeterministicAcrossWorkers(t *testing.T) {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = checkWarmup, checkMeasure
	cfg.Check = true
	pf, err := sim.Policy("mpppb")
	if err != nil {
		t.Fatal(err)
	}
	segs := workload.Segments()[:3]
	keys := make([]string, len(segs))
	for i, id := range segs {
		keys[i] = id.String()
	}

	render := func(workers int) string {
		rows, _, err := experiments.RunCells(&experiments.Run{Workers: workers}, keys, func(_ context.Context, i int) (string, error) {
			r := sim.RunSingle(cfg, workload.NewGenerator(segs[i], 0), pf).Deterministic()
			return fmt.Sprintf("%s %d %d %d %d\n", r.Segment, r.Instructions, r.Cycles, r.LLCMisses, r.Bypasses), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(rows, "")
	}
	if serial, par := render(1), render(8); serial != par {
		t.Fatalf("checked results differ between -j1 and -j8:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}
