package main

// Golden-output tests: a tiny configuration (one benchmark, two policies,
// short runs) exercises the full TSV rendering path — runner, experiment
// driver, worker pool — and the bytes written must match testdata/
// exactly. Because the pool merges deterministically, the goldens hold at
// any -j; the test runs with the default pool width to prove it.
//
// Regenerate after an intentional output change with:
//
//	go test ./cmd/mpppb-experiments -run Golden -update

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpppb/internal/clitest"
	"mpppb/internal/experiments"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/sim"
)

var update = clitest.Update

// goldenRunner builds the 2-policy × 3-segment configuration shared by the
// golden tests: one benchmark (3 segments), short warmup/measure.
func goldenRunner(outDir string) *runner {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 150_000, 500_000
	return &runner{
		stCfg:      cfg,
		mcCfg:      sim.MultiCoreConfig(),
		outDir:     outDir,
		stPolicies: []string{"sdbp", "mpppb"},
		stBenches:  []string{"sphinx3_like"},
	}
}

func TestGoldenTSV(t *testing.T) {
	dir := t.TempDir()
	r := goldenRunner(dir)
	// fig6 and fig7 share one file-less journal, as the tool's runs do, so
	// fig7 renders from the cells fig6 computed; table1 is compiled-in
	// data.
	r.opts = &experiments.Run{Journal: journal.Memory()}
	for _, id := range []string{"fig6", "fig7", "table1"} {
		if err := r.run(id); err != nil {
			t.Fatalf("run(%s): %v", id, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", id+".golden.tsv")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s output differs from %s\n--- got ---\n%s\n--- want ---\n%s", id, golden, got, want)
		}
	}
}

// TestOutputIdenticalWithObservability pins the tentpole invariant of the
// observability layer: with the -listen server live, a run status wired
// through the drivers, and the lockstep -check verifier on, the TSV bytes
// are identical at -j 1 and -j 8 — and identical to a run with
// observability absent entirely.
func TestOutputIdenticalWithObservability(t *testing.T) {
	fetch := func(addr, path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	render := func(workers int, observed bool) string {
		dir := t.TempDir()
		r := goldenRunner(dir)
		r.stCfg.Warmup, r.stCfg.Measure = 100_000, 300_000
		r.stCfg.Check = true
		r.opts = &experiments.Run{Workers: workers, KeepGoing: true}
		if observed {
			status := obs.NewRunStatus("mpppb-experiments-test")
			srv, err := obs.Serve("127.0.0.1:0", obs.Default(), status)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			r.opts.Status = status
			defer func() {
				// The endpoints must have served real run data while the TSV
				// below stayed untouched by them.
				if body := fetch(srv.Addr(), "/metrics"); !strings.Contains(body, "mpppb_experiments_cells_computed_total") {
					t.Errorf("/metrics missing cell counters:\n%s", body)
				}
				// fig6's grid is a MIN cell and a cell per policy on each
				// segment (9 for the golden benchmark's 3 and 2 policies),
				// all done by the time the run returns.
				if body := fetch(srv.Addr(), "/status"); !strings.Contains(body, `"tool": "mpppb-experiments-test"`) ||
					!strings.Contains(body, `"done_cells": 9`) {
					t.Errorf("/status missing run manifest:\n%s", body)
				}
			}()
		}
		if err := r.run("fig6"); err != nil {
			t.Fatalf("run(fig6, j=%d): %v", workers, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "fig6.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	plain := render(1, false)
	j1 := render(1, true)
	j8 := render(8, true)
	if j1 != plain {
		t.Errorf("-j1 output with observability differs from plain run:\n--- observed ---\n%s\n--- plain ---\n%s", j1, plain)
	}
	if j8 != j1 {
		t.Errorf("-j8 output differs from -j1 with observability on:\n--- j8 ---\n%s\n--- j1 ---\n%s", j8, j1)
	}
}

// TestFailedExperimentKeepsPreviousTSV: an experiment that fails after its
// output is open (here its run context is already cancelled, as after a
// SIGINT) leaves the previous <id>.tsv byte-identical and no temporary
// file behind; an experiment that succeeds replaces its table.
func TestFailedExperimentKeepsPreviousTSV(t *testing.T) {
	dir := t.TempDir()
	prev := []byte("# fig6 from an earlier run\nbenchmark\tlru\n")
	if err := os.WriteFile(filepath.Join(dir, "fig6.tsv"), prev, 0o644); err != nil {
		t.Fatal(err)
	}
	r := goldenRunner(dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.opts = &experiments.Run{Ctx: ctx}
	if err := r.run("fig6"); !errors.Is(err, context.Canceled) {
		t.Fatalf("run(fig6) with a cancelled context: %v, want %v", err, context.Canceled)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "fig6.tsv")); err != nil || string(got) != string(prev) {
		t.Fatalf("fig6.tsv after the failed run: %q (%v), want the previous %q", got, err, prev)
	}
	if err := r.run("table1"); err != nil {
		t.Fatalf("run(table1): %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "fig6.tsv table1.tsv" {
		t.Fatalf("-out holds %v, want only fig6.tsv and table1.tsv", names)
	}
}
