package main

// In-process fleet splits: a coordinator board serving the work-lease API
// over HTTP and a worker leasing cells from it both render one
// experiment, and both renderings must match the local golden.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpppb/internal/experiments"
	"mpppb/internal/fleet"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/sim"
)

// fleetSplit runs render twice at once: as the coordinator of a fresh
// board journaling under fp, and as a worker leasing from it. computed,
// when non-nil, then sees the key of every cell the worker computed, as
// its /status shows them. render must be goroutine-safe (no t.Fatal).
func fleetSplit[T any](t *testing.T, fp journal.Fingerprint, computed func(key string), render func(dir string, opts *experiments.Run) (T, error)) (coord, worker T) {
	t.Helper()
	jrnl, err := journal.Create(filepath.Join(t.TempDir(), "run.journal"), fp)
	if err != nil {
		t.Fatal(err)
	}
	board := fleet.NewBoard(fleet.BoardConfig{Fingerprint: fp, Journal: jrnl, TTL: time.Second})
	mux := http.NewServeMux()
	for _, rt := range fleet.Routes(board) {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); board.Close(); jrnl.Close() }()

	wk, err := fleet.NewWorker(fleet.WorkerConfig{URL: srv.URL, ID: "w0", Fingerprint: fp, Workers: 2, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var coordErr, workerErr error
	status := obs.NewRunStatus("worker")
	wg.Add(2)
	go func() {
		defer wg.Done()
		coord, coordErr = render(t.TempDir(), &experiments.Run{Ctx: ctx, Journal: jrnl, Fleet: board})
	}()
	go func() {
		defer wg.Done()
		worker, workerErr = render(t.TempDir(), &experiments.Run{Ctx: ctx, FleetWorker: wk, Status: status})
	}()
	wg.Wait()
	if coordErr != nil {
		t.Fatalf("fleet coordinator: %v", coordErr)
	}
	if workerErr != nil {
		t.Fatalf("fleet worker: %v", workerErr)
	}
	if computed != nil {
		for key, state := range status.Snapshot().Cells {
			if state == obs.CellOK {
				computed(key)
			}
		}
	}
	return coord, worker
}

// TestFig3GoldenWithFleet: the feature search split across a coordinator
// and a worker prints the cli-fig3 golden at both parties. The random
// phase and the references are one grid and each hill-climb proposal one
// grid after it, so the worker computes the search's evaluation cells
// (untimed cells of feature sets), not only the LRU and MIN reference
// lines, and proposes each next candidate from the grids it fetches.
func TestFig3GoldenWithFleet(t *testing.T) {
	if *update {
		t.Skip("golden update pass")
	}
	golden, err := os.ReadFile("testdata/cli-fig3.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimPrefix(string(golden), "# --- fig3 ---\n")

	var mu sync.Mutex
	evals := 0
	fp := journal.Fingerprint{Config: "fig3-test-cfg", Version: "test", Seed: 1}
	coord, worker := fleetSplit(t, fp, func(key string) {
		if strings.HasPrefix(key, "fast/") && !strings.Contains(key, "/lru/") {
			mu.Lock()
			evals++
			mu.Unlock()
		}
	}, func(dir string, opts *experiments.Run) (string, error) {
		cfg := sim.SingleThreadConfig()
		cfg.Warmup, cfg.Measure = 50_000, 200_000
		r := &runner{stCfg: cfg, outDir: dir, nRandom: 3, climbSteps: 3, opts: opts}
		if err := r.run("fig3"); err != nil {
			return "", err
		}
		b, err := os.ReadFile(filepath.Join(dir, "fig3.tsv"))
		return string(b), err
	})
	for label, got := range map[string]string{"fleet coordinator": coord, "fleet worker": worker} {
		if got != want {
			t.Errorf("%s differs from golden\n--- got ---\n%s\n--- want ---\n%s", label, got, want)
		}
	}
	if evals == 0 {
		t.Error("the worker computed no evaluation cells")
	}
}
