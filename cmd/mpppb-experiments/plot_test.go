package main

import (
	"fmt"
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
// not decode as its cell fails that cell (fig6's MIN cell on one
// segment), and a segment with no misses under either policy has a 0/0
// ratio. fig4 covers both multi-core
// failure rules: a failed standalone cell makes its mix NaN for every
// policy, and a failed policy cell makes only that policy's entry NaN.
func TestPlotRendersNaNCells(t *testing.T) {
	jrnl, err := journal.Create(filepath.Join(t.TempDir(), "run.journal"), testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	defer jrnl.Close()
	mixes := experiments.TestingMixes(workload.Mixes(3, workload.DefaultMixSeed))
	// Every cell is keyed by kind, machine, policy and workload.
	type cell struct {
		IPC  []float64 `json:"ipc"`
		MPKI float64   `json:"mpki"`
		LRU  *cell     `json:"lru,omitempty"`
	}
	st := journal.ConfigHash(sim.SingleThreadConfig()) + "/"
	seed := map[string]any{
		"min/" + st + "min/gcc_like-0":     "not a cell",
		"min/" + st + "min/gcc_like-1":     cell{IPC: []float64{1.2}, MPKI: 6, LRU: &cell{IPC: []float64{1}, MPKI: 9}},
		"min/" + st + "min/gcc_like-2":     cell{IPC: []float64{1.3}, MPKI: 5, LRU: &cell{IPC: []float64{1}, MPKI: 7}},
		"timed/" + st + "mpppb/gcc_like-0": cell{IPC: []float64{1}, MPKI: 8},
		"timed/" + st + "mpppb/gcc_like-1": cell{IPC: []float64{1.1}, MPKI: 8},
		"timed/" + st + "mpppb/gcc_like-2": cell{IPC: []float64{0.9}, MPKI: 8},
	}
	for i, mpki := range [][2]float64{{0, 0}, {10, 9}, {10, 11}} {
		seed[fmt.Sprintf("fast/%smpppb/gcc_like-%d", st, i)] = cell{IPC: []float64{0}, MPKI: mpki[0]}
		seed[fmt.Sprintf("fast/%smpppb-adaptive/gcc_like-%d", st, i)] = cell{IPC: []float64{0}, MPKI: mpki[1]}
	}
	// Multi-core cells are keyed by machine, policy and workload.
	mc := "mc/" + journal.ConfigHash(sim.MultiCoreConfig()) + "/"
	for i, mix := range mixes {
		seed[mc+"lru/"+mix.String()] = cell{IPC: []float64{1, 1, 1, 1}, MPKI: 10}
		seed[mc+"srrip/"+mix.String()] = cell{IPC: []float64{1.1, 1, 1, 1}, MPKI: 9}
		seed[mc+"mpppb-srrip/"+mix.String()] = cell{IPC: []float64{1.2, 1, 1, 1}, MPKI: 8}
		for _, id := range mix {
			seed[mc+"lru/"+id.String()] = cell{IPC: []float64{2 + float64(i)}, MPKI: 5}
		}
	}
	// A segment of mix 0 alone fails, so mix 0 is NaN under both
	// policies; mpppb-srrip fails on mix 1, where srrip stays a number.
	failed := mixes[0][0]
	for _, id := range mixes[1] {
		if id == failed {
			t.Fatalf("segment %s is in both mixes; pick another", id)
		}
	}
	seed[mc+"lru/"+failed.String()] = "not a cell"
	seed[mc+"mpppb-srrip/"+mixes[1].String()] = "not a cell"
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
		mcPolicies: []string{"srrip", "mpppb-srrip"},
		stBenches:  []string{"gcc_like"},
		opts:       &experiments.Run{Journal: jrnl, KeepGoing: true},
	}
	tsvs := map[string]string{}
	for id, title := range map[string]string{"fig4": "# Figure 4: weighted", "fig6": "# Figure 6: MPPPB", "figadapt": "# figadapt: adaptive/static"} {
		if err := r.run(id); err != nil {
			t.Fatalf("run(%s): %v", id, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		tsvs[id] = string(b)
		if tsv := string(b); !strings.Contains(tsv, "NaN") || !strings.Contains(tsv, title) {
			t.Errorf("%s: want a NaN entry and the chart %q:\n%s", id, title, tsv)
		}
	}
	// fig4's S-curve rows: rank, srrip, mpppb-srrip (NaN sorts first).
	var rows []string
	for _, line := range strings.Split(tsvs["fig4"], "\n") {
		if strings.HasPrefix(line, "0\t") || strings.HasPrefix(line, "1\t") {
			rows = append(rows, line)
		}
	}
	if want := []string{"0\tNaN\tNaN", "1\t1.0250\tNaN"}; strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Errorf("fig4 rows %q, want %q", rows, want)
	}
	if got := len(r.opts.Failures()); got != 3 {
		t.Errorf("%d failed cells, want 3 (one fig6 MIN cell; one fig4 standalone and one fig4 policy cell)", got)
	}
}
