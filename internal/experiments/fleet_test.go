package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpppb/internal/fleet"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
)

// TestFleetWorkersShareGridStatus: two fleet workers share one grid. Each
// ends with every cell terminal on its own /status: the cells it computed
// as ok, with their compute time, and the rest as served by the
// coordinator.
func TestFleetWorkersShareGridStatus(t *testing.T) {
	fp := journal.Fingerprint{Config: "status-test", Version: "test", Seed: 1}
	board := fleet.NewBoard(fleet.BoardConfig{Fingerprint: fp, TTL: time.Second})
	mux := http.NewServeMux()
	for _, rt := range fleet.Routes(board) {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); board.Close() }()

	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell/%d", i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Each worker's first cell waits until the other worker holds one
	// too, so both compute at least one cell.
	var arrived atomic.Int32
	both := make(chan struct{})
	statuses := []*obs.RunStatus{obs.NewRunStatus("w0"), obs.NewRunStatus("w1")}
	runErrs := make([]error, 1+len(statuses))
	var wg sync.WaitGroup
	wg.Add(1 + len(statuses))
	go func() {
		defer wg.Done()
		_, _, runErrs[0] = RunCells(&Run{Ctx: ctx, Fleet: board}, keys, func(context.Context, int) (int, error) {
			return 0, errors.New("the coordinator computed a cell")
		})
	}()
	for w, st := range statuses {
		wk, err := fleet.NewWorker(fleet.WorkerConfig{URL: srv.URL, ID: fmt.Sprintf("w%d", w), Fingerprint: fp, Workers: 1, Poll: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var first sync.Once
		go func() {
			defer wg.Done()
			_, _, runErrs[1+w] = RunCells(&Run{Ctx: ctx, FleetWorker: wk, Status: st}, keys, func(ctx context.Context, i int) (int, error) {
				first.Do(func() {
					if arrived.Add(1) == 2 {
						close(both)
					}
					select {
					case <-both:
					case <-ctx.Done():
					}
				})
				time.Sleep(2 * time.Millisecond)
				return i * i, nil
			})
		}()
	}
	wg.Wait()
	for i, err := range runErrs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	for w, st := range statuses {
		snap := st.Snapshot()
		ok := 0
		for key, state := range snap.Cells {
			switch state {
			case obs.CellOK:
				ok++
			case obs.CellJournal:
			default:
				t.Errorf("worker %d: cell %s is %s, want ok or journal", w, key, state)
			}
		}
		if snap.DoneCells != len(keys) || snap.RunningCells != 0 || ok == 0 || snap.MeanCellSeconds <= 0 {
			t.Errorf("worker %d: %d/%d cells done, %d running, %d computed, mean %gs; want all done, none running, some computed, mean above 0",
				w, snap.DoneCells, snap.TotalCells, snap.RunningCells, ok, snap.MeanCellSeconds)
		}
	}
}
