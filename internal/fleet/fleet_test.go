package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mpppb/internal/journal"
	"mpppb/internal/obs"
)

var testFP = journal.Fingerprint{Config: "cafef00d", Version: "test", Seed: 42}

// cellVal is the cell payload for these tests: small, exported fields,
// lossless through JSON — the same contract the real drivers obey.
type cellVal struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

func computeVal(keys []string) func(ctx context.Context, i int) (any, error) {
	return func(_ context.Context, i int) (any, error) {
		return cellVal{Key: keys[i], N: i * i}, nil
	}
}

// newTestFleet builds a board (with journal) and an HTTP server exposing
// its work-lease API.
func newTestFleet(t *testing.T, ttl time.Duration) (*Board, *journal.Journal, *httptest.Server) {
	t.Helper()
	j, err := journal.Create(filepath.Join(t.TempDir(), "run.journal"), testFP)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBoard(BoardConfig{Fingerprint: testFP, Journal: j, TTL: ttl})
	mux := http.NewServeMux()
	for _, rt := range Routes(b) {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(func() { srv.Close(); b.Close(); j.Close() })
	return b, j, srv
}

func newTestWorker(t *testing.T, url, id string, lanes int) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		URL: url, ID: id, Fingerprint: testFP,
		Workers: lanes, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFleetMatchesLocal is the core determinism property: a campaign run
// by a coordinator and two workers yields, at every party, byte-for-byte
// the values a single process would compute.
func TestFleetMatchesLocal(t *testing.T) {
	b, j, srv := newTestFleet(t, time.Second)

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell/%02d", i)
	}
	want := make([]json.RawMessage, len(keys))
	for i := range keys {
		raw, err := json.Marshal(cellVal{Key: keys[i], N: i * i})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = raw
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type out struct {
		raws []json.RawMessage
		errs []error
		err  error
	}
	var wg sync.WaitGroup
	var coord out
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.raws, coord.errs, coord.err = Coordinate(ctx, b, keys, nil)
	}()
	workers := make([]out, 2)
	for wi := range workers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := newTestWorker(t, srv.URL, fmt.Sprintf("w%d", wi), 2)
			workers[wi].raws, workers[wi].errs, workers[wi].err = w.Run(ctx, keys, computeVal(keys))
		}(wi)
	}
	wg.Wait()

	check := func(name string, o out) {
		t.Helper()
		if o.err != nil {
			t.Fatalf("%s: run error: %v", name, o.err)
		}
		for i := range keys {
			if o.errs[i] != nil {
				t.Fatalf("%s: cell %s failed: %v", name, keys[i], o.errs[i])
			}
			if !bytes.Equal(o.raws[i], want[i]) {
				t.Errorf("%s: cell %s = %s, want %s", name, keys[i], o.raws[i], want[i])
			}
		}
	}
	check("coordinator", coord)
	check("worker0", workers[0])
	check("worker1", workers[1])

	// The journal holds every cell, byte-identical too.
	for i, k := range keys {
		raw, ok := j.LoadRaw(k)
		if !ok {
			t.Fatalf("journal missing %s", k)
		}
		if !bytes.Equal(raw, want[i]) {
			t.Errorf("journal %s = %s, want %s", k, raw, want[i])
		}
	}
}

// TestCoordinateServesJournal: a fully-journaled grid resolves with no
// workers at all, marking every cell as served from the journal.
func TestCoordinateServesJournal(t *testing.T) {
	b, j, _ := newTestFleet(t, time.Second)
	keys := []string{"a", "b", "c"}
	for i, k := range keys {
		if err := j.Record(k, cellVal{Key: k, N: i}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	fromJ := 0
	raws, errs, err := Coordinate(ctx, b, keys, func(_ int, _ string, fromJournal bool, _ error) {
		if fromJournal {
			fromJ++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fromJ != len(keys) {
		t.Fatalf("journal-served = %d, want %d", fromJ, len(keys))
	}
	for i, k := range keys {
		var v cellVal
		if errs[i] != nil || json.Unmarshal(raws[i], &v) != nil || v.N != i {
			t.Fatalf("cell %s: errs=%v raw=%s", k, errs[i], raws[i])
		}
	}
}

// TestLeaseExpiryReassignment: a worker that leases a cell and goes silent
// (kill -9) loses the lease at the deadline; the cell re-pends and a live
// worker gets it. The dead worker's renewals are refused afterwards.
func TestLeaseExpiryReassignment(t *testing.T) {
	b, _, _ := newTestFleet(t, 50*time.Millisecond)
	b.Add("x")

	expired0 := mLeasesExpired.Value()
	key, deadID, _, granted, _, err := b.Lease("dead", testFP, []string{"x"})
	if err != nil || !granted || key != "x" {
		t.Fatalf("lease: key=%q granted=%v err=%v", key, granted, err)
	}

	// Past the deadline the sweep re-pends the cell.
	b.sweep(time.Now().Add(time.Second))
	if got := mLeasesExpired.Value() - expired0; got != 1 {
		t.Fatalf("leases expired = %d, want 1", got)
	}
	if ok, _ := b.Renew("dead", "x", deadID, testFP); ok {
		t.Fatal("renew of an expired lease succeeded")
	}

	var liveID uint64
	key, liveID, _, granted, _, err = b.Lease("live", testFP, []string{"x"})
	if err != nil || !granted || key != "x" {
		t.Fatalf("re-lease: key=%q granted=%v err=%v", key, granted, err)
	}
	if liveID == deadID {
		t.Fatal("reassigned cell kept the dead lease id")
	}
	if ok, _ := b.Renew("live", "x", liveID, testFP); !ok {
		t.Fatal("renew of the live lease refused")
	}
}

// TestCompletionResolution covers the duplicate/stale/refusal ladder.
func TestCompletionResolution(t *testing.T) {
	b, j, _ := newTestFleet(t, 50*time.Millisecond)
	b.Add("x")
	_, staleID, _, _, _, err := b.Lease("w1", testFP, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}

	// Malformed payloads are refused outright: the cell stays leased.
	refused0 := mRefusedResults.Value()
	if err := b.Complete("w1", "x", staleID, json.RawMessage(`{"truncated`), testFP); err == nil {
		t.Fatal("malformed completion accepted")
	}
	if err := b.Complete("w1", "x", staleID, nil, testFP); err == nil {
		t.Fatal("empty completion accepted")
	}
	if got := mRefusedResults.Value() - refused0; got != 2 {
		t.Fatalf("refused = %d, want 2", got)
	}
	if ok, _ := b.Renew("w1", "x", staleID, testFP); !ok {
		t.Fatal("refusal should leave the lease intact")
	}

	// Expire w1's lease; w2 takes over. w1's late completion still lands
	// (deterministic values), counted as stale.
	b.sweep(time.Now().Add(time.Second))
	_, freshID, _, granted, _, err := b.Lease("w2", testFP, []string{"x"})
	if err != nil || !granted {
		t.Fatal("re-lease failed")
	}
	stale0, dup0 := mStaleCompletions.Value(), mDuplicateCompletions.Value()
	first := json.RawMessage(`{"key":"x","n":1}`)
	if err := b.Complete("w1", "x", staleID, first, testFP); err != nil {
		t.Fatalf("stale completion refused: %v", err)
	}
	if got := mStaleCompletions.Value() - stale0; got != 1 {
		t.Fatalf("stale = %d, want 1", got)
	}

	// w2's completion is now a duplicate: dropped without error and
	// without overwriting the journal.
	if err := b.Complete("w2", "x", freshID, json.RawMessage(`{"key":"x","n":2}`), testFP); err != nil {
		t.Fatalf("duplicate completion errored: %v", err)
	}
	if got := mDuplicateCompletions.Value() - dup0; got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
	raw, ok := j.LoadRaw("x")
	if !ok || !bytes.Equal(raw, first) {
		t.Fatalf("journal = %s, want %s", raw, first)
	}
}

// TestFingerprintMismatch: a worker built differently is answered 409 and
// gives up at once rather than polling forever.
func TestFingerprintMismatch(t *testing.T) {
	_, _, srv := newTestFleet(t, time.Second)
	w, err := NewWorker(WorkerConfig{
		URL: srv.URL, ID: "stranger",
		Fingerprint: journal.Fingerprint{Config: "deadbeef", Version: "other", Seed: 7},
		Workers:     1, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, runErr := w.Run(ctx, []string{"x"}, computeVal([]string{"x"}))
	if runErr == nil || !errors.Is(runErr, errConflict) {
		t.Fatalf("want conflict error, got %v", runErr)
	}
}

// TestWorkerDiesMidCampaign exercises the full reassignment path over
// HTTP: a worker leases a cell and vanishes without renewing; the sweeper
// expires the lease and a live worker finishes the campaign.
func TestWorkerDiesMidCampaign(t *testing.T) {
	b, _, srv := newTestFleet(t, 150*time.Millisecond)
	keys := []string{"a", "b", "c", "d"}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	coordDone := make(chan struct{})
	var raws []json.RawMessage
	var errs []error
	var coordErr error
	go func() {
		defer close(coordDone)
		raws, errs, coordErr = Coordinate(ctx, b, keys, nil)
	}()

	// The doomed worker leases one cell by hand and never heartbeats.
	client := &http.Client{Timeout: 5 * time.Second}
	var lease leaseResponse
	for !lease.Granted {
		if err := post(client, srv.URL, "/lease", leaseRequest{
			Worker: "doomed", Fingerprint: testFP, Keys: keys,
		}, &lease); err != nil {
			t.Fatal(err)
		}
	}

	// A live worker drains the rest — including, after expiry, the doomed
	// worker's cell.
	w := newTestWorker(t, srv.URL, "survivor", 2)
	if _, _, err := w.Run(ctx, keys, computeVal(keys)); err != nil {
		t.Fatalf("survivor: %v", err)
	}

	<-coordDone
	if coordErr != nil {
		t.Fatal(coordErr)
	}
	for i, k := range keys {
		if errs[i] != nil {
			t.Fatalf("cell %s: %v", k, errs[i])
		}
		var v cellVal
		if err := json.Unmarshal(raws[i], &v); err != nil || v.Key != k {
			t.Fatalf("cell %s: raw %s", k, raws[i])
		}
	}
}

// TestFailRetryBudget: the board keeps no retry budget — a reported
// failure is final, the cell is never leased again, and Await reports it
// as a CellError naming the worker.
func TestFailRetryBudget(t *testing.T) {
	b, _, _ := newTestFleet(t, time.Second)
	b.Add("x")
	_, id, _, _, _, _ := b.Lease("w", testFP, []string{"x"})
	if err := b.Fail("w", "x", id, "broken", testFP); err != nil {
		t.Fatal(err)
	}
	if _, _, _, granted, _, _ := b.Lease("w2", testFP, []string{"x"}); granted {
		t.Fatal("failed cell was leased again")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := b.Await(ctx, "x")
	var ce *CellError
	if !errors.As(err, &ce) || ce.Worker != "w" || ce.Msg != "broken" {
		t.Fatalf("Await = %v, want the CellError from worker w", err)
	}
}

// TestWorkerReportsPermanentFailure: a cell whose compute fails terminally
// surfaces as a per-cell error at both coordinator and worker, with the
// rest of the grid unharmed.
func TestWorkerReportsPermanentFailure(t *testing.T) {
	b, _, srv := newTestFleet(t, time.Second)
	keys := []string{"good", "bad"}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coordDone := make(chan struct{})
	var cerrs []error
	go func() {
		defer close(coordDone)
		_, cerrs, _ = Coordinate(ctx, b, keys, nil)
	}()

	w := newTestWorker(t, srv.URL, "w", 1)
	raws, errs, runErr := w.Run(ctx, keys, func(_ context.Context, i int) (any, error) {
		if keys[i] == "bad" {
			return nil, errors.New("segment refuses to simulate")
		}
		return cellVal{Key: keys[i], N: i}, nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if errs[0] != nil || raws[0] == nil {
		t.Fatalf("good cell: errs=%v", errs[0])
	}
	var ce *CellError
	if errs[1] == nil || !errors.As(errs[1], &ce) {
		t.Fatalf("bad cell: want CellError, got %v", errs[1])
	}

	<-coordDone
	if cerrs[1] == nil {
		t.Fatal("coordinator missed the permanent failure")
	}
}

// TestBoardStatusLeases: the /status manifest mirrors lease holders while
// cells are out and clears them on completion.
func TestBoardStatusLeases(t *testing.T) {
	st := obs.NewRunStatus("test")
	j, err := journal.Create(filepath.Join(t.TempDir(), "j"), testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	b := NewBoard(BoardConfig{Fingerprint: testFP, Journal: j, Status: st, TTL: time.Second})
	defer b.Close()

	st.AddCells("x")
	b.Add("x")
	_, id, _, _, _, _ := b.Lease("holder", testFP, []string{"x"})
	snap := st.Snapshot()
	if snap.CellLeases["x"] != "holder" {
		t.Fatalf("cell_leases = %v, want x→holder", snap.CellLeases)
	}
	if snap.Cells["x"] != obs.CellRunning {
		t.Fatalf("cell state = %s, want running", snap.Cells["x"])
	}
	if err := b.Complete("holder", "x", id, json.RawMessage(`{"n":1}`), testFP); err != nil {
		t.Fatal(err)
	}
	snap = st.Snapshot()
	if len(snap.CellLeases) != 0 {
		t.Fatalf("cell_leases after completion = %v, want empty", snap.CellLeases)
	}
	if snap.Cells["x"] != obs.CellOK {
		t.Fatalf("cell state = %s, want ok", snap.Cells["x"])
	}
}

// TestSettleWorkersLingersForLiveWorkers: after the grid drains, the
// coordinator must keep serving until each live worker has fetched the
// terminal grid via /cells — a worker that has only been granted leases
// (or is still polling) holds SettleWorkers open; the /cells fetch
// releases it. Workers that stop contacting the board age out of the
// liveness window instead of pinning the linger forever.
func TestSettleWorkersLingersForLiveWorkers(t *testing.T) {
	b, _, srv := newTestFleet(t, 60*time.Millisecond)
	b.Add("cell/settle")

	// Worker leases and completes the only cell via the HTTP API.
	var lease leaseResponse
	client := srv.Client()
	if err := post(client, srv.URL, "/lease", leaseRequest{
		Worker: "w1", Fingerprint: testFP, Keys: []string{"cell/settle"},
	}, &lease); err != nil || !lease.Granted {
		t.Fatalf("lease: granted=%v err=%v", lease.Granted, err)
	}
	raw, _ := json.Marshal(cellVal{Key: "cell/settle", N: 1})
	var okResp okResponse
	if err := post(client, srv.URL, "/complete", completeRequest{
		Worker: "w1", Fingerprint: testFP, Key: "cell/settle",
		LeaseID: lease.LeaseID, Value: raw,
	}, &okResp); err != nil {
		t.Fatal(err)
	}

	// The grid is terminal but w1 has not fetched it: SettleWorkers must
	// still be waiting on it.
	settled := make(chan struct{})
	go func() {
		b.SettleWorkers(context.Background(), 5*time.Second)
		close(settled)
	}()
	select {
	case <-settled:
		t.Fatal("SettleWorkers returned before the live worker fetched the grid")
	case <-time.After(100 * time.Millisecond):
	}

	var cells cellsResponse
	if err := post(client, srv.URL, "/cells", cellsRequest{
		Worker: "w1", Fingerprint: testFP, Keys: []string{"cell/settle"},
	}, &cells); err != nil {
		t.Fatal(err)
	}
	select {
	case <-settled:
	case <-time.After(2 * time.Second):
		t.Fatal("SettleWorkers did not return after the worker fetched the terminal grid")
	}

	// A worker that polled once and vanished ages out of the liveness
	// window (2x the 60ms TTL) rather than holding the linger open for
	// the whole grace period.
	b.Add("cell/settle2")
	var l2 leaseResponse
	if err := post(client, srv.URL, "/lease", leaseRequest{
		Worker: "ghost", Fingerprint: testFP, Keys: []string{"cell/settle2"},
	}, &l2); err != nil || !l2.Granted {
		t.Fatalf("ghost lease: granted=%v err=%v", l2.Granted, err)
	}
	start := time.Now()
	b.SettleWorkers(context.Background(), 5*time.Second)
	if e := time.Since(start); e >= 4*time.Second {
		t.Fatalf("SettleWorkers waited %v for a dead worker; should age out at 2x TTL", e)
	}
}
