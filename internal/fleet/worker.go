package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mpppb/internal/journal"
	"mpppb/internal/parallel"
)

// DefaultPoll is the sleep between lease requests answered "no work yet".
const DefaultPoll = 250 * time.Millisecond

// maxConsecutiveHTTPErrors is how many back-to-back failed round trips a
// worker tolerates before concluding the coordinator is gone.
const maxConsecutiveHTTPErrors = 15

// WorkerConfig configures a fleet worker.
type WorkerConfig struct {
	// URL is the coordinator's base URL (the -listen address of the
	// coordinator process), e.g. http://host:8080.
	URL string
	// ID names this worker in leases and metrics; empty derives
	// hostname-pid.
	ID string
	// Fingerprint must match the coordinator's or every request is
	// refused with 409.
	Fingerprint journal.Fingerprint
	// Workers is how many cells to compute concurrently (the worker
	// process's -j): one lease loop each; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Poll is the sleep between empty lease responses; 0 means
	// DefaultPoll.
	Poll time.Duration
	// Client is the HTTP client; nil uses a modest-timeout default.
	Client *http.Client
}

// Worker computes cells leased from a coordinator.
type Worker struct {
	cfg  WorkerConfig
	base string
}

// NewWorker validates the config and returns a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.URL == "" {
		return nil, errors.New("fleet: worker needs a coordinator URL")
	}
	base := strings.TrimRight(cfg.URL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if cfg.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{cfg: cfg, base: base}, nil
}

// ID returns the worker's identity as sent to the coordinator.
func (w *Worker) ID() string { return w.cfg.ID }

// Run leases cells from keys until the coordinator reports the grid
// drained, computing each with compute (which receives the key's index in
// keys). It then fetches every cell's terminal state and returns
// MapErr-shaped results: per-key raw JSON values — including cells other
// workers computed — per-key errors for permanently failed cells, and a
// run error for cancellation or a dead/conflicting coordinator. Run
// records no outcome itself: compute sees each cell this worker computes,
// and the returned grid holds the rest.
func (w *Worker) Run(ctx context.Context, keys []string, compute func(ctx context.Context, i int) (any, error)) ([]json.RawMessage, []error, error) {
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	workers := w.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Each loop independently leases, computes, reports, repeats. A fatal
	// error (conflict, coordinator unreachable) latches and stops every
	// loop.
	var fatalMu sync.Mutex
	var fatalErr error
	loopCtx, cancelLoops := context.WithCancel(ctx)
	defer cancelLoops()
	fatal := func(err error) {
		fatalMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		fatalMu.Unlock()
		cancelLoops()
	}
	var lanes sync.WaitGroup
	for range workers {
		lanes.Add(1)
		go func() {
			defer lanes.Done()
			w.leaseLoop(loopCtx, keys, index, compute, fatal)
		}()
	}
	lanes.Wait()
	fatalMu.Lock()
	err := fatalErr
	fatalMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Drained: every cell is terminal on the coordinator. Fetch the full
	// grid — including cells computed elsewhere — so this worker can emit
	// the same tables a single-process run would. The coordinator lingers
	// after its campaign completes until live workers have made this
	// fetch (Board.SettleWorkers), so transient failures here are worth a
	// few retries before giving up.
	var resp cellsResponse
	var fetchErr error
	for attempt := 0; attempt < 5; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		fetchErr = post(w.cfg.Client, w.base, "/cells", cellsRequest{
			Worker: w.cfg.ID, Fingerprint: w.cfg.Fingerprint, Keys: keys,
		}, &resp)
		if fetchErr == nil {
			break
		}
		if errors.Is(fetchErr, errConflict) {
			return nil, nil, fetchErr
		}
		sleepCtx(ctx, w.cfg.Poll)
	}
	if fetchErr != nil {
		return nil, nil, fmt.Errorf("fleet: campaign drained but the final grid fetch failed: %w", fetchErr)
	}
	raws := make([]json.RawMessage, len(keys))
	errs := make([]error, len(keys))
	for _, c := range resp.Cells {
		i, ok := index[c.Key]
		if !ok {
			continue
		}
		switch c.Status {
		case "ok":
			raws[i] = c.Value
		case "failed":
			errs[i] = &CellError{Key: c.Key, Msg: c.Error}
		default:
			errs[i] = fmt.Errorf("fleet: cell %s not terminal after drain (status %s)", c.Key, c.Status)
		}
	}
	return raws, errs, nil
}

// leaseLoop is one concurrent lane: lease → compute → report, until the
// grid drains or the context dies.
func (w *Worker) leaseLoop(ctx context.Context, keys []string, index map[string]int, compute func(ctx context.Context, i int) (any, error), fatal func(error)) {
	httpErrs := 0
	for {
		if ctx.Err() != nil {
			return
		}
		var lease leaseResponse
		err := post(w.cfg.Client, w.base, "/lease", leaseRequest{
			Worker: w.cfg.ID, Fingerprint: w.cfg.Fingerprint, Keys: keys,
		}, &lease)
		if err != nil {
			if errors.Is(err, errConflict) {
				fatal(err)
				return
			}
			httpErrs++
			if httpErrs >= maxConsecutiveHTTPErrors {
				fatal(fmt.Errorf("fleet: coordinator unreachable after %d attempts: %w", httpErrs, err))
				return
			}
			sleepCtx(ctx, w.cfg.Poll)
			continue
		}
		httpErrs = 0
		if lease.Drained {
			return
		}
		if !lease.Granted {
			mWorkerPolls.Inc()
			sleepCtx(ctx, w.cfg.Poll)
			continue
		}
		mWorkerLeases.Inc()
		w.runLease(ctx, lease, index, compute, fatal)
	}
}

// runLease computes one leased cell under a heartbeat and reports the
// outcome.
func (w *Worker) runLease(ctx context.Context, lease leaseResponse, index map[string]int, compute func(ctx context.Context, i int) (any, error), fatal func(error)) {
	key := lease.Key
	i, ok := index[key]
	if !ok {
		// The coordinator never grants keys outside the request set; a
		// mismatch means crossed campaigns.
		fatal(fmt.Errorf("fleet: leased unknown cell %s", key))
		return
	}
	ttl := ttlFromMillis(lease.TTLMilli)

	// Heartbeat: renew at a third of the TTL. A refused renewal means the
	// lease expired and was reassigned — abandon the attempt (lost lease)
	// without reporting, because another worker now owns the cell.
	computeCtx, cancelCompute := context.WithCancel(ctx)
	leaseLost := make(chan struct{})
	heartbeatDone := make(chan struct{})
	go func() {
		defer close(heartbeatDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-computeCtx.Done():
				return
			case <-t.C:
			}
			var renewed okResponse
			err := post(w.cfg.Client, w.base, "/renew", renewRequest{
				Worker: w.cfg.ID, Fingerprint: w.cfg.Fingerprint,
				Key: key, LeaseID: lease.LeaseID,
			}, &renewed)
			if err != nil {
				if errors.Is(err, errConflict) {
					fatal(err)
					return
				}
				// Transient renew failures ride on the TTL slack: the next
				// tick retries, and if the coordinator stays unreachable the
				// lease simply expires there.
				continue
			}
			mWorkerRenewals.Inc()
			if !renewed.OK {
				mWorkerLeaseLost.Inc()
				close(leaseLost)
				cancelCompute()
				return
			}
		}
	}()

	// The cell runs as one pool task, with the pool's panic capture and
	// task metrics.
	vals, errs, runErr := parallel.MapErr(computeCtx, parallel.RunOpts{
		Workers: 1, KeepGoing: true,
	}, 1, func(actx context.Context, _ int) (any, error) {
		return compute(actx, i)
	})
	cancelCompute()
	<-heartbeatDone

	select {
	case <-leaseLost:
		return // reassigned; result abandoned
	default:
	}
	if ctx.Err() != nil {
		return // shutting down; lease expires at the coordinator
	}

	var cellErr error
	if runErr != nil {
		cellErr = runErr
	} else if errs[0] != nil {
		cellErr = errs[0]
	}
	if cellErr == nil {
		raw, err := json.Marshal(vals[0])
		if err != nil {
			cellErr = fmt.Errorf("marshal result: %w", err)
		} else {
			if w.report(ctx, "/complete", completeRequest{
				Worker: w.cfg.ID, Fingerprint: w.cfg.Fingerprint,
				Key: key, LeaseID: lease.LeaseID, Value: raw,
			}, fatal) == nil {
				mWorkerCompleted.Inc()
			}
			return
		}
	}
	if w.report(ctx, "/fail", failRequest{
		Worker: w.cfg.ID, Fingerprint: w.cfg.Fingerprint,
		Key: key, LeaseID: lease.LeaseID,
		Error: cellErr.Error(),
	}, fatal) == nil {
		mWorkerFailed.Inc()
	}
}

// report uploads a completion or failure, retrying transient HTTP errors
// within the lease's grace. Giving up is safe — the lease expires and the
// cell is reassigned — so only conflicts are fatal.
func (w *Worker) report(ctx context.Context, path string, req any, fatal func(error)) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var resp okResponse
		lastErr = post(w.cfg.Client, w.base, path, req, &resp)
		if lastErr == nil {
			return nil
		}
		if errors.Is(lastErr, errConflict) {
			fatal(lastErr)
			return lastErr
		}
		sleepCtx(ctx, w.cfg.Poll)
	}
	return lastErr
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
