// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6), mapped to experiment IDs fig1/fig3..fig10 and
// table1..table3 (see DESIGN.md's experiment index). Each experiment is a
// plain function from a configuration to a typed result; cmd/mpppb-
// experiments renders results as TSV, and its goldens pin every
// experiment at reduced scale.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"mpppb/internal/core"
	"mpppb/internal/fleet"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

// Cell-grid metrics: one observation per cell, fed by RunCells — the
// single choke point every experiment driver funnels through.
var (
	mCellsDeclared = obs.Default().Gauge("mpppb_experiments_cells_total",
		"grid cells declared by the experiment drivers this run")
	mCellsComputed = obs.Default().Counter("mpppb_experiments_cells_computed_total",
		"cells computed to completion (excludes journal hits)")
	mCellsJournal = obs.Default().Counter("mpppb_experiments_cells_journal_total",
		"cells served from the checkpoint journal instead of recomputed")
	mCellsFailed = obs.Default().Counter("mpppb_experiments_cells_failed_total",
		"cells that failed and render as NaN")
	mCellSeconds = obs.Default().Histogram("mpppb_experiments_cell_seconds",
		"wall time per computed cell", obs.LatencyBuckets)
	mDegenerateGeoMean = obs.Default().Counter("mpppb_experiments_degenerate_geomean_inputs_total",
		"non-positive values absorbed as NaN by KeepGoing geomean aggregation")
)

// Progress receives human-readable status lines; nil disables reporting.
// The experiment drivers fan work across goroutines (see -j on the cmd
// tools), so the callback must tolerate being invoked from any goroutine;
// the drivers serialize calls through a tracker, so the callback itself
// never runs concurrently with itself and completion counts it sees are
// monotonic.
type Progress func(format string, args ...any)

func (p Progress) log(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// tracker adapts a Progress callback for use from pool workers: calls are
// serialized under a mutex and each carries a completed/total counter that
// increases monotonically regardless of the order workers finish in.
type tracker struct {
	mu    sync.Mutex
	p     Progress
	done  int
	total int
}

// tracker wraps p for total units of concurrent work.
func (p Progress) tracker(total int) *tracker {
	return &tracker{p: p, total: total}
}

// step records one completed unit and logs it with the running count.
func (t *tracker) step(format string, args ...any) {
	if t.p == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.p("%s (%d/%d done)", fmt.Sprintf(format, args...), t.done, t.total)
	t.mu.Unlock()
}

// Run carries the execution policy for one experiment invocation:
// cancellation, checkpointing, pool sizing, failure handling, duel
// candidates and progress reporting. A nil *Run means "all defaults" —
// background context, no journal, default pool, fail-fast, default duel,
// silent.
type Run struct {
	// Ctx cancels the run: dispatch of new cells stops, in-flight cells
	// finish (and are journaled), and the experiment returns Ctx's error.
	Ctx context.Context
	// Journal checkpoints completed cells; nil disables.
	Journal *journal.Journal
	// Workers overrides the pool width; 0 uses parallel.Default (-j).
	Workers int
	// Duel, when non-nil, replaces the candidates the mpppb-adaptive
	// policies duel (the -duel flag; see sim.PolicyWith).
	Duel []core.ThresholdSet
	// KeepGoing degrades gracefully: a cell that fails is recorded as a
	// FAILED journal entry and an entry in Failures(), its slots in the
	// result table hold NaN (rendered "NaN" in the TSVs), and the
	// remaining cells still run. Without it the first failure aborts.
	// Geomean aggregation is lenient under KeepGoing too: a degenerate
	// non-positive cell value (an IPC of 0 from a zero-instruction
	// segment) poisons its aggregate to NaN instead of panicking.
	KeepGoing bool
	// Progress receives status lines; nil disables.
	Progress Progress
	// Status, when non-nil, receives the live cell-grid manifest (the
	// /status endpoint of the cmd tools' -listen flag): cells are declared
	// as grids are built and transition pending → running → ok/journal/
	// failed as workers report.
	Status *obs.RunStatus
	// Fleet, when non-nil, makes this process a campaign coordinator:
	// cells are declared on the board and computed by remote workers
	// leasing them over HTTP, never locally. Journal hits still serve
	// immediately, and accepted worker results are merged into Journal by
	// the board, so resume and table emission behave exactly like a local
	// run.
	Fleet *fleet.Board
	// FleetWorker, when non-nil, makes this process a campaign worker: it
	// leases cells from Fleet's coordinator and uploads results instead of
	// journaling locally. Mutually exclusive with Fleet and Journal.
	FleetWorker *fleet.Worker

	mu       sync.Mutex
	failures []CellFailure
}

// CellFailure records one cell that failed permanently.
type CellFailure struct {
	Key string
	Err error
}

func (r *Run) ctx() context.Context {
	if r == nil || r.Ctx == nil {
		return context.Background()
	}
	return r.Ctx
}

func (r *Run) jrnl() *journal.Journal {
	if r == nil {
		return nil
	}
	return r.Journal
}

func (r *Run) prog() Progress {
	if r == nil {
		return nil
	}
	return r.Progress
}

func (r *Run) status() *obs.RunStatus {
	if r == nil {
		return nil
	}
	return r.Status
}

func (r *Run) keepGoing() bool { return r != nil && r.KeepGoing }

// geoMean aggregates with the strictness the run's failure policy implies.
// Fail-fast runs use stats.GeoMean, whose panic on a non-positive entry
// aborts the experiment — a degenerate cell value must not silently shape
// a table. KeepGoing runs were designed to degrade instead, so they use
// the lenient form: the aggregate renders NaN (exactly like a failed
// cell's slots) and the degenerate inputs are counted and reported.
func (r *Run) geoMean(xs []float64) float64 {
	if !r.keepGoing() {
		return stats.GeoMean(xs)
	}
	gm, bad := stats.GeoMeanLenient(xs)
	if bad > 0 {
		mDegenerateGeoMean.Add(uint64(bad))
		r.prog().log("warning: %d non-positive value(s) in a geomean aggregate; rendering NaN", bad)
	}
	return gm
}

func (r *Run) popts() parallel.RunOpts {
	if r == nil {
		return parallel.RunOpts{}
	}
	return parallel.RunOpts{Workers: r.Workers, KeepGoing: r.KeepGoing}
}

// mustPolicy resolves a policy name the caller has already validated,
// with the run's duel candidates applied.
func (r *Run) mustPolicy(name string) sim.PolicyFactory {
	var cands []core.ThresholdSet
	if r != nil {
		cands = r.Duel
	}
	pf, err := sim.PolicyWith(name, cands)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return pf
}

func (r *Run) addFailure(key string, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.failures = append(r.failures, CellFailure{Key: key, Err: err})
	r.mu.Unlock()
}

// Failures returns the cells that failed permanently during this Run, in
// no particular order. Empty on a clean run (and always on a nil Run).
func (r *Run) Failures() []CellFailure {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CellFailure(nil), r.failures...)
}

// RunCells executes one cell grid: for each key, either serve the cell
// from the journal or compute and journal it, fanning across the pool per
// the Run's options — or, under Run.Fleet or Run.FleetWorker, across a
// fleet. It is the single choke point where checkpointing, live status
// and failure accounting meet, so every experiment driver and batch tool
// gets identical fault semantics. It returns each cell's value, each
// cell's error (a failed cell under KeepGoing), and the run's error.
// Cancellation errors are never recorded as cell failures — an
// interrupted cell is simply absent and recomputes on resume.
func RunCells[T any](r *Run, keys []string, compute func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	if r != nil && r.Fleet != nil {
		return runCellsCoordinator[T](r, keys)
	}
	if r != nil && r.FleetWorker != nil {
		return runCellsWorker(r, keys, compute)
	}
	trk := r.prog().tracker(len(keys))
	st := r.status()
	st.AddCells(keys...)
	mCellsDeclared.Add(int64(len(keys)))
	j := r.jrnl()
	results, errs, err := parallel.MapErr(r.ctx(), r.popts(), len(keys), func(ctx context.Context, i int) (T, error) {
		var v T
		st.CellRunning(keys[i])
		if ok, lerr := j.Load(keys[i], &v); lerr != nil {
			return v, lerr
		} else if ok {
			st.CellDone(keys[i], obs.CellJournal, 0)
			mCellsJournal.Inc()
			trk.step("%s (from journal)", keys[i])
			return v, nil
		}
		t0 := time.Now()
		v, cerr := compute(ctx, i)
		if cerr != nil {
			// Failures are settled below, after MapErr returns.
			return v, cerr
		}
		if rerr := j.Record(keys[i], v); rerr != nil {
			return v, rerr
		}
		elapsed := time.Since(t0)
		st.CellDone(keys[i], obs.CellOK, elapsed)
		mCellsComputed.Inc()
		mCellSeconds.Observe(elapsed.Seconds())
		trk.step("%s", keys[i])
		return v, nil
	})
	for i, e := range errs {
		if e == nil || errors.Is(e, context.Canceled) {
			continue
		}
		j.RecordFailure(keys[i], e)
		r.addFailure(keys[i], e)
		st.CellDone(keys[i], obs.CellFailed, 0)
		mCellsFailed.Inc()
	}
	return results, errs, err
}

// runCellsCoordinator runs one grid in fleet-coordinator mode: declare the
// cells on the board, serve journal hits, and wait for workers to lease
// and complete the rest. Results arrive as the raw JSON the worker
// uploaded (already merged into the journal by the board) and decode into
// T exactly as a -resume run decodes its journal — the same losslessness
// contract, so fleet tables are byte-identical to local ones.
func runCellsCoordinator[T any](r *Run, keys []string) ([]T, []error, error) {
	trk := r.prog().tracker(len(keys))
	st := r.status()
	st.AddCells(keys...)
	mCellsDeclared.Add(int64(len(keys)))
	raws, errs, runErr := fleet.Coordinate(r.ctx(), r.Fleet, keys, func(i int, key string, fromJournal bool, cellErr error) {
		switch {
		case cellErr != nil:
		case fromJournal:
			mCellsJournal.Inc()
			trk.step("%s (from journal)", key)
		default:
			mCellsComputed.Inc()
			trk.step("%s (fleet)", key)
		}
	})
	results := make([]T, len(keys))
	for i, raw := range raws {
		if errs[i] != nil || raw == nil {
			continue
		}
		if uerr := json.Unmarshal(raw, &results[i]); uerr != nil {
			errs[i] = fmt.Errorf("fleet: decode %s: %w", keys[i], uerr)
		}
	}
	settleFailures(r, keys, errs)
	return results, errs, runErr
}

// runCellsWorker runs one grid in fleet-worker mode: lease cells from the
// coordinator, compute them locally, upload results, and — once the
// coordinator reports the grid drained — fetch every cell so this process
// can emit the same tables the coordinator does. No local journal is written; the coordinator owns it.
func runCellsWorker[T any](r *Run, keys []string, compute func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	trk := r.prog().tracker(len(keys))
	st := r.status()
	st.AddCells(keys...)
	mCellsDeclared.Add(int64(len(keys)))
	raws, errs, runErr := r.FleetWorker.Run(r.ctx(), keys, func(ctx context.Context, i int) (any, error) {
		t0 := time.Now()
		v, cerr := compute(ctx, i)
		if cerr != nil {
			return v, cerr
		}
		elapsed := time.Since(t0)
		mCellsComputed.Inc()
		mCellSeconds.Observe(elapsed.Seconds())
		trk.step("%s", keys[i])
		return v, nil
	})
	if runErr != nil && len(raws) == 0 {
		return nil, nil, runErr
	}
	results := make([]T, len(keys))
	for i, raw := range raws {
		if errs[i] != nil || raw == nil {
			continue
		}
		if uerr := json.Unmarshal(raw, &results[i]); uerr != nil {
			errs[i] = fmt.Errorf("fleet: decode %s: %w", keys[i], uerr)
		}
	}
	settleFailures(r, keys, errs)
	return results, errs, runErr
}

// settleFailures records permanent cell failures after a fleet grid
// resolves: the Run's failure list, the /status manifest, and the journal
// (coordinator only; a worker's jrnl() is nil). Cancellations are not
// failures — those cells recompute on resume.
func settleFailures(r *Run, keys []string, errs []error) {
	j := r.jrnl()
	st := r.status()
	for i, e := range errs {
		if e == nil || errors.Is(e, context.Canceled) {
			continue
		}
		j.RecordFailure(keys[i], e)
		r.addFailure(keys[i], e)
		st.CellDone(keys[i], obs.CellFailed, 0)
		mCellsFailed.Inc()
	}
}

// DefaultSingleThreadPolicies are the realistic policies compared in the
// single-thread evaluation (Figures 6 and 7); LRU and MIN are always run in
// addition.
func DefaultSingleThreadPolicies() []string { return []string{"hawkeye", "perceptron", "mpppb"} }

// DefaultMultiCorePolicies are the policies of the multi-programmed
// evaluation (Figures 4 and 5); LRU is always run in addition.
func DefaultMultiCorePolicies() []string { return []string{"hawkeye", "perceptron", "mpppb-srrip"} }

// TrainingMixes and TestingMixes split the canonical mix list as in
// Section 5.3: the first 100 mixes train the feature search, the remaining
// 900 are reported.
func TrainingMixes(total []workload.Mix) []workload.Mix {
	n := len(total) / 10
	if n == 0 {
		n = 1
	}
	return total[:n]
}

// TestingMixes returns the reporting portion of the canonical mix list.
func TestingMixes(total []workload.Mix) []workload.Mix {
	n := len(total) / 10
	if n == 0 {
		n = 1
	}
	return total[n:]
}

// TrainingSegments returns n segments spread across the suite (one per
// stride of benchmarks), a diverse training set for the feature search.
func TrainingSegments(n int) []workload.SegmentID {
	all := workload.Segments()
	if n <= 0 || n >= len(all) {
		return all
	}
	stride := len(all) / n
	out := make([]workload.SegmentID, 0, n)
	for i := 0; i < len(all) && len(out) < n; i += stride {
		out = append(out, all[i])
	}
	return out
}
