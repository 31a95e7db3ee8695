// Package fleet distributes a journaled experiment campaign across
// machines. One process is the coordinator: it owns the cell grid and the
// checkpoint journal, and serves a small work-lease HTTP API on the obs
// -listen port every binary already opens. Any number of workers lease
// cells over that API, compute them with the same binary and flags, and
// upload results; the coordinator merges completions into the journal with
// the same fingerprint and last-entry-wins guarantees a single-process run
// has, so the final tables are byte-identical to a -j1 run at any worker
// count.
//
// Fault model. A lease carries a heartbeat deadline; a worker renews the
// leases it holds, and the coordinator's sweeper returns any cell whose
// lease expires to the pending pool for a fresh worker — kill -9 of a
// worker costs only the wall time of its in-flight cells. A failure a
// worker reports explicitly marks the cell failed exactly as a local run
// would: cell values are deterministic, so a fresh attempt would fail the
// same way. For the same reason, a
// completion arriving after its lease expired is still merged (first
// completion wins; later duplicates are dropped idempotently), while a
// malformed or truncated payload is refused outright.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"mpppb/internal/journal"
	"mpppb/internal/obs"
)

// DefaultTTL is the lease heartbeat deadline when BoardConfig leaves it
// zero. Workers renew at a third of it.
const DefaultTTL = 15 * time.Second

// ErrFingerprint is returned (and served as HTTP 409) when a worker's
// fingerprint does not match the coordinator's: a worker built from a
// different revision, config, or seed would compute different cell values
// under the same keys.
var ErrFingerprint = errors.New("fleet: worker/coordinator fingerprint mismatch")

// CellError is the coordinator-side record of a cell a worker reported
// permanently failed.
type CellError struct {
	Key    string
	Worker string
	Msg    string
}

func (e *CellError) Error() string {
	return fmt.Sprintf("fleet: cell %s failed on worker %s: %s", e.Key, e.Worker, e.Msg)
}

// cellStatus is the lifecycle of one cell on the board.
type cellStatus int

const (
	cellPending cellStatus = iota
	cellLeased
	cellDone
	cellFailed
)

// String renders the status for the /cells fetch protocol.
func (s cellStatus) String() string {
	switch s {
	case cellPending:
		return "pending"
	case cellLeased:
		return "leased"
	case cellDone:
		return "ok"
	default:
		return "failed"
	}
}

type boardCell struct {
	status   cellStatus
	leaseID  uint64
	worker   string
	granted  time.Time
	deadline time.Time
	value    json.RawMessage
	errMsg   string
	errFrom  string
}

// BoardConfig configures a coordinator board.
type BoardConfig struct {
	// Fingerprint is the run identity workers must match (the journal
	// fingerprint: config hash + build version + seed).
	Fingerprint journal.Fingerprint
	// Journal receives accepted completions (RecordRaw) so a fleet
	// campaign checkpoints and resumes exactly like a local one; nil
	// disables persistence.
	Journal *journal.Journal
	// Status, when non-nil, mirrors cell lease/terminal state into the
	// /status manifest.
	Status *obs.RunStatus
	// TTL is the lease heartbeat deadline; 0 means DefaultTTL.
	TTL time.Duration
}

// Board is the coordinator's authoritative cell grid: which cells exist,
// who holds a lease on each, and every terminal result. All methods are
// safe for concurrent use.
type Board struct {
	cfg BoardConfig

	mu       sync.Mutex
	cells    map[string]*boardCell
	order    []string
	changed  chan struct{} // closed and replaced on every state change
	leaseSeq uint64
	lastSeen map[string]time.Time // worker id → last request time
	settled  map[string]bool      // worker id → has fetched the drained grid

	closeOnce sync.Once
	closed    chan struct{}
	sweepDone chan struct{}
}

// NewBoard starts a board (and its lease-expiry sweeper) for one campaign.
// Close it when the campaign ends.
func NewBoard(cfg BoardConfig) *Board {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	b := &Board{
		cfg:       cfg,
		cells:     map[string]*boardCell{},
		changed:   make(chan struct{}),
		lastSeen:  map[string]time.Time{},
		settled:   map[string]bool{},
		closed:    make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	go b.sweeper()
	return b
}

// Close stops the sweeper. Idempotent.
func (b *Board) Close() {
	b.closeOnce.Do(func() { close(b.closed) })
	<-b.sweepDone
}

// TTL returns the board's lease deadline.
func (b *Board) TTL() time.Duration { return b.cfg.TTL }

// broadcast wakes every Await/drain waiter. Callers hold b.mu.
func (b *Board) broadcast() {
	close(b.changed)
	b.changed = make(chan struct{})
}

// touch records worker contact for the liveness gauge. Callers hold b.mu.
func (b *Board) touch(worker string) {
	if worker != "" {
		b.lastSeen[worker] = time.Now()
	}
}

// sweeper periodically expires overdue leases and refreshes the worker
// liveness gauge.
func (b *Board) sweeper() {
	defer close(b.sweepDone)
	t := time.NewTicker(b.cfg.TTL / 4)
	defer t.Stop()
	for {
		select {
		case <-b.closed:
			return
		case <-t.C:
			b.sweep(time.Now())
		}
	}
}

// sweep re-pends every cell whose lease deadline passed and recomputes
// worker liveness. A reassigned cell keeps its leaseID so the late
// worker's renew calls are refused, steering it back to the lease loop.
func (b *Board) sweep(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	expired := 0
	for key, c := range b.cells {
		if c.status == cellLeased && now.After(c.deadline) {
			c.status = cellPending
			c.worker = ""
			expired++
			mLeasesExpired.Inc()
			mCellsReassigned.Inc()
			b.cfg.Status.CellRequeued(key)
		}
	}
	if expired > 0 {
		b.broadcast()
	}
	live := 0
	liveWindow := 2 * b.cfg.TTL
	for w, seen := range b.lastSeen {
		if now.Sub(seen) <= liveWindow {
			live++
		} else if now.Sub(seen) > 10*b.cfg.TTL {
			delete(b.lastSeen, w)
		}
	}
	mWorkersLive.Set(int64(live))
}

// checkFingerprint validates a worker-supplied fingerprint against the
// board's.
func (b *Board) checkFingerprint(fp journal.Fingerprint) error {
	if fp != b.cfg.Fingerprint {
		return fmt.Errorf("%w: worker is config=%s version=%s seed=%d, coordinator is config=%s version=%s seed=%d",
			ErrFingerprint, fp.Config, fp.Version, fp.Seed,
			b.cfg.Fingerprint.Config, b.cfg.Fingerprint.Version, b.cfg.Fingerprint.Seed)
	}
	return nil
}

// Add declares cells as pending (and leasable). Keys already on the board
// keep their state, so incremental grids and re-declarations are free. New
// cells un-settle every worker: the grid they last caught up with is no
// longer the whole campaign.
func (b *Board) Add(keys ...string) {
	b.mu.Lock()
	added := false
	for _, k := range keys {
		if _, ok := b.cells[k]; !ok {
			b.cells[k] = &boardCell{status: cellPending}
			b.order = append(b.order, k)
			added = true
		}
	}
	if added {
		b.settled = map[string]bool{}
		b.broadcast()
	}
	b.mu.Unlock()
}

// CompleteLocal records a terminal value the coordinator already has — a
// journal hit on resume — so workers see the cell as done and fetch its
// value like any other. It never re-journals.
func (b *Board) CompleteLocal(key string, raw json.RawMessage, fromJournal bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.cells[key]
	if !ok {
		c = &boardCell{}
		b.cells[key] = c
		b.order = append(b.order, key)
	}
	if c.status == cellDone || c.status == cellFailed {
		return
	}
	c.status = cellDone
	c.value = raw
	if fromJournal {
		b.cfg.Status.CellDone(key, obs.CellJournal, 0)
	} else {
		b.cfg.Status.CellDone(key, obs.CellOK, 0)
	}
	b.broadcast()
}

// Lease hands the worker one pending cell from keys, in key order (the
// caller's grid order, so early cells — which later grids may depend on —
// drain first). It returns granted=false with drained=true when every
// requested key is on the board and terminal, and granted=false,
// drained=false when the worker should poll again (cells in flight
// elsewhere, or a grid the coordinator has not declared yet).
func (b *Board) Lease(worker string, fp journal.Fingerprint, keys []string) (key string, leaseID uint64, ttl time.Duration, granted, drained bool, err error) {
	if err := b.checkFingerprint(fp); err != nil {
		return "", 0, 0, false, false, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.touch(worker)
	drained = true
	for _, k := range keys {
		c, ok := b.cells[k]
		if !ok {
			drained = false
			continue
		}
		switch c.status {
		case cellPending:
			b.leaseSeq++
			c.status = cellLeased
			c.leaseID = b.leaseSeq
			c.worker = worker
			c.granted = time.Now()
			c.deadline = c.granted.Add(b.cfg.TTL)
			mLeasesGranted.Inc()
			b.cfg.Status.CellLeased(k, worker)
			b.settled[worker] = false
			return k, c.leaseID, b.cfg.TTL, true, false, nil
		case cellLeased:
			drained = false
		}
	}
	if !drained {
		// The worker will poll again — it has not caught up with the
		// final grid, so SettleWorkers must keep waiting for it.
		b.settled[worker] = false
	}
	return "", 0, 0, false, drained, nil
}

// Renew extends a held lease's deadline. It reports false when the lease
// is gone — expired and reassigned, or the cell already terminal — which
// tells the holder to abandon the attempt.
func (b *Board) Renew(worker, key string, leaseID uint64, fp journal.Fingerprint) (bool, error) {
	if err := b.checkFingerprint(fp); err != nil {
		return false, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.touch(worker)
	c, ok := b.cells[key]
	if !ok || c.status != cellLeased || c.leaseID != leaseID {
		return false, nil
	}
	c.deadline = time.Now().Add(b.cfg.TTL)
	mLeasesRenewed.Inc()
	return true, nil
}

// Complete merges a worker's result. Resolution rules, in order:
//
//   - malformed payload (empty or invalid JSON) → refused, cell untouched;
//   - cell already terminal → dropped idempotently (cell values are
//     deterministic, so a duplicate carries no new information);
//   - stale lease but cell still open → accepted (same determinism
//     argument: the value is the value), counted separately;
//   - otherwise → accepted: journaled via RecordRaw, cell done.
func (b *Board) Complete(worker, key string, leaseID uint64, raw json.RawMessage, fp journal.Fingerprint) error {
	if err := b.checkFingerprint(fp); err != nil {
		mRefusedResults.Inc()
		return err
	}
	if len(raw) == 0 || !json.Valid(raw) {
		mRefusedResults.Inc()
		return fmt.Errorf("fleet: refusing partial or malformed result for %s from %s", key, worker)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.touch(worker)
	c, ok := b.cells[key]
	if !ok {
		mRefusedResults.Inc()
		return fmt.Errorf("fleet: completion for unknown cell %s from %s", key, worker)
	}
	if c.status == cellDone || c.status == cellFailed {
		mDuplicateCompletions.Inc()
		return nil
	}
	if c.status != cellLeased || c.leaseID != leaseID || c.worker != worker {
		mStaleCompletions.Inc()
	}
	if err := b.cfg.Journal.RecordRaw(key, raw); err != nil {
		mRefusedResults.Inc()
		return err
	}
	elapsed := time.Duration(0)
	if !c.granted.IsZero() {
		elapsed = time.Since(c.granted)
	}
	c.status = cellDone
	c.value = append(json.RawMessage(nil), raw...)
	mCompletions.Inc()
	b.cfg.Status.CellDone(key, obs.CellOK, elapsed)
	b.broadcast()
	return nil
}

// Fail records a worker-reported failure: the cell is marked permanently
// failed, exactly like a local cell that returned an error.
func (b *Board) Fail(worker, key string, leaseID uint64, msg string, fp journal.Fingerprint) error {
	if err := b.checkFingerprint(fp); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.touch(worker)
	c, ok := b.cells[key]
	if !ok {
		return fmt.Errorf("fleet: failure report for unknown cell %s from %s", key, worker)
	}
	if c.status == cellDone || c.status == cellFailed {
		mDuplicateCompletions.Inc()
		return nil
	}
	c.status = cellFailed
	c.errMsg = msg
	c.errFrom = worker
	mCellFailures.Inc()
	b.cfg.Status.CellDone(key, obs.CellFailed, 0)
	b.broadcast()
	return nil
}

// CellSnapshot is one cell's terminal (or in-flight) state as served to
// workers fetching their grid after drain.
type CellSnapshot struct {
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Value  json.RawMessage `json:"value,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Cells returns the current state of the requested keys. Unknown keys
// report status "pending" (the coordinator just has not declared them
// yet).
func (b *Board) Cells(worker string, fp journal.Fingerprint, keys []string) ([]CellSnapshot, error) {
	if err := b.checkFingerprint(fp); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.touch(worker)
	out := make([]CellSnapshot, len(keys))
	terminal := true
	for i, k := range keys {
		out[i] = CellSnapshot{Key: k, Status: cellPending.String()}
		if c, ok := b.cells[k]; ok {
			out[i].Status = c.status.String()
			if c.status == cellDone {
				out[i].Value = c.value
			}
			if c.status == cellFailed {
				out[i].Error = c.errMsg
			}
			if c.status != cellDone && c.status != cellFailed {
				terminal = false
			}
		} else {
			terminal = false
		}
	}
	if terminal && worker != "" {
		// The worker now holds every terminal value it asked for: it
		// needs nothing further from this coordinator.
		b.settled[worker] = true
	}
	return out, nil
}

// SettleWorkers blocks until every live worker (heard from within twice
// the TTL) has fetched the fully-terminal grid via Cells, or until grace
// expires or ctx is done. A coordinator calls it after its campaign
// completes, before tearing down the HTTP server: without the linger, a
// worker still polling for its drained signal — or about to fetch the
// final grid so it can render the same tables — would find the
// coordinator already gone and report it unreachable.
func (b *Board) SettleWorkers(ctx context.Context, grace time.Duration) {
	deadline := time.Now().Add(grace)
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		b.mu.Lock()
		waiting := false
		now := time.Now()
		for w, seen := range b.lastSeen {
			if now.Sub(seen) <= 2*b.cfg.TTL && !b.settled[w] {
				waiting = true
				break
			}
		}
		b.mu.Unlock()
		if !waiting || now.After(deadline) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Await blocks until key is terminal, returning its raw value or its
// failure. The wait is passive — leasing and completion proceed entirely
// in the HTTP handlers — so any number of Awaits cost nothing.
func (b *Board) Await(ctx context.Context, key string) (json.RawMessage, error) {
	for {
		b.mu.Lock()
		c, ok := b.cells[key]
		if ok {
			switch c.status {
			case cellDone:
				v := c.value
				b.mu.Unlock()
				return v, nil
			case cellFailed:
				e := &CellError{Key: key, Worker: c.errFrom, Msg: c.errMsg}
				b.mu.Unlock()
				return nil, e
			}
		}
		ch := b.changed
		b.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
		}
	}
}

// Coordinate runs one grid through the board: every key is declared
// leasable, journal hits complete immediately (served exactly as -resume
// serves them locally), and the rest wait for workers. It returns
// MapErr-shaped results: per-key raw values, per-key errors for cells the
// fleet failed permanently, and a run error only on cancellation.
// progress, when non-nil, is called once per key as it resolves, with
// fromJournal set for journal hits and err set for permanent failures.
func Coordinate(ctx context.Context, b *Board, keys []string, progress func(i int, key string, fromJournal bool, err error)) ([]json.RawMessage, []error, error) {
	b.Add(keys...)
	served := make([]bool, len(keys))
	for i, k := range keys {
		if raw, ok := b.cfg.Journal.LoadRaw(k); ok {
			b.CompleteLocal(k, raw, true)
			served[i] = true
		}
	}
	raws := make([]json.RawMessage, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		raw, err := b.Await(ctx, k)
		if err != nil {
			var ce *CellError
			if errors.As(err, &ce) {
				errs[i] = err
				if progress != nil {
					progress(i, k, false, err)
				}
				continue
			}
			return raws, errs, err // cancellation
		}
		raws[i] = raw
		if progress != nil {
			progress(i, k, served[i], nil)
		}
	}
	return raws, errs, nil
}
