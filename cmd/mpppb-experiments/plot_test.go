package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/journal"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// TestPlotRendersNaNCells: -plot charts tables holding a NaN — a failed
// cell in fig4 and fig6, a 0/0 MPKI ratio in figadapt — instead of
// panicking on int(NaN), and the NaN still reaches the TSV. The NaNs are
// injected through the journal, with no simulation: an entry that does
// not decode as its cell fails that cell, and a segment with no misses
// under either policy has a 0/0 ratio.
func TestPlotRendersNaNCells(t *testing.T) {
	jrnl, err := journal.Create(filepath.Join(t.TempDir(), "run.journal"), testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	defer jrnl.Close()
	type vals = map[string]float64
	mixes := experiments.TestingMixes(workload.Mixes(3, workload.DefaultMixSeed))
	seed := map[string]any{
		"single/gcc_like-0":          "not a cell",
		"single/gcc_like-1":          map[string]vals{"ipc": {"lru": 1, "min": 1.2, "mpppb": 1.1}, "mpki": {"lru": 9, "min": 6, "mpppb": 8}},
		"single/gcc_like-2":          map[string]vals{"ipc": {"lru": 1, "min": 1.3, "mpppb": 0.9}, "mpki": {"lru": 7, "min": 5, "mpppb": 8}},
		"multi/" + mixes[0].String(): "not a cell",
		"multi/" + mixes[1].String(): map[string]any{"lru_mpki": 10, "ws": vals{"mpppb-srrip": 1.01}, "mpki": vals{"mpppb-srrip": 9}},
		"adapt/gcc_like-0":           map[string][]float64{"static": {0}, "adaptive": {0}},
		"adapt/gcc_like-1":           map[string][]float64{"static": {10}, "adaptive": {9}},
		"adapt/gcc_like-2":           map[string][]float64{"static": {10}, "adaptive": {11}},
	}
	for k, v := range seed {
		if err := jrnl.Record(k, v); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	r := &runner{
		stCfg:      sim.SingleThreadConfig(),
		mcCfg:      sim.MultiCoreConfig(),
		outDir:     dir,
		plot:       true,
		mixCount:   2,
		adaptSeeds: 1,
		stPolicies: []string{"mpppb"},
		mcPolicies: []string{"mpppb-srrip"},
		stBenches:  []string{"gcc_like"},
		opts:       &experiments.Run{Journal: jrnl, KeepGoing: true},
	}
	for id, title := range map[string]string{"fig4": "# Figure 4: weighted", "fig6": "# Figure 6: MPPPB", "figadapt": "# figadapt: adaptive/static"} {
		if err := r.run(id); err != nil {
			t.Fatalf("run(%s): %v", id, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if tsv := string(b); !strings.Contains(tsv, "NaN") || !strings.Contains(tsv, title) {
			t.Errorf("%s: want a NaN entry and the chart %q:\n%s", id, title, tsv)
		}
	}
	if got := len(r.opts.Failures()); got != 2 {
		t.Errorf("%d failed cells, want 2 (one fig6 segment, one fig4 mix)", got)
	}
}
