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

// Cell-grid metrics: one observation per cell, recorded by the ledger of
// RunCells — the single choke point every experiment driver funnels
// through.
var (
	mCellsDeclared = obs.Default().Gauge("mpppb_experiments_cells_total",
		"distinct cell keys declared by the experiment drivers this run")
	mCellsComputed = obs.Default().Counter("mpppb_experiments_cells_computed_total",
		"cells computed to completion (excludes journal hits)")
	mCellsJournal = obs.Default().Counter("mpppb_experiments_cells_journal_total",
		"cells served instead of computed: from the checkpoint journal, or on a fleet worker from the coordinator")
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
// a grid's ledger serializes its calls, so the callback itself never runs
// concurrently with itself and the completion counts it sees are
// monotonic.
type Progress func(format string, args ...any)

// Run carries the execution policy for one experiment invocation:
// cancellation, checkpointing, pool sizing, failure handling, duel
// candidates and progress reporting. A nil *Run means "all defaults" —
// background context, no journal, GOMAXPROCS workers, fail-fast, default
// duel, silent.
type Run struct {
	// Ctx cancels the run: dispatch of new cells stops, in-flight cells
	// finish (and are journaled), and the experiment returns Ctx's error.
	Ctx context.Context
	// Journal checkpoints completed cells and serves every key it holds,
	// so a cell several grids declare is computed once (journal.Memory
	// keeps one without a file); nil disables both.
	Journal *journal.Journal
	// Workers is the pool width for cells computed in this process (the
	// cmd tools' -j); 0 means runtime.GOMAXPROCS(0). A fleet worker's
	// width is its WorkerConfig.Workers.
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
	// failed as their outcomes reach the grid's ledger.
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
	declared map[string]bool
}

// CellFailure records one cell that failed permanently.
type CellFailure struct {
	Key string
	Err error
}

// log sends a status line to r's Progress, if any.
func (r *Run) log(format string, args ...any) {
	if r != nil && r.Progress != nil {
		r.Progress(format, args...)
	}
}

// geoMean aggregates with the strictness the run's failure policy implies.
// Fail-fast runs use stats.GeoMean, whose panic on a non-positive entry
// aborts the experiment — a degenerate cell value must not silently shape
// a table. KeepGoing runs were designed to degrade instead, so they use
// the lenient form: the aggregate renders NaN (exactly like a failed
// cell's slots) and the degenerate inputs are counted and reported.
func (r *Run) geoMean(xs []float64) float64 {
	if r == nil || !r.KeepGoing {
		return stats.GeoMean(xs)
	}
	gm, bad := stats.GeoMeanLenient(xs)
	if bad > 0 {
		mDegenerateGeoMean.Add(uint64(bad))
		r.log("warning: %d non-positive value(s) in a geomean aggregate; rendering NaN", bad)
	}
	return gm
}

// named resolves a registry policy the caller has already validated,
// with the run's duel candidates applied.
func (r *Run) named(name string) Policy {
	var cands []core.ThresholdSet
	if r != nil {
		cands = r.Duel
	}
	pf, err := sim.PolicyWith(name, cands)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return Policy{name, pf}
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
// fleet. The role decides only where each cell's outcome comes from; one
// ledger records every outcome, so every experiment driver and batch tool
// gets identical checkpointing, live status and failure accounting. It
// returns each cell's value, each cell's error (a failed cell under
// KeepGoing), and the run's error. Fleet values arrive as the JSON a
// worker uploaded and decode into T exactly as a -resume run decodes its
// journal, so fleet tables are byte-identical to local ones.
func RunCells[T any](r *Run, keys []string, compute func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	if r == nil {
		r = &Run{}
	}
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	l := r.ledger(keys)
	st, j := r.Status, r.Journal
	record := func(key string, v T) error { return j.Record(key, v) }
	if r.FleetWorker != nil {
		// A worker keeps a value by uploading it, so a value that cannot
		// be encoded fails here, as it would fail a journal.
		record = func(_ string, v T) error {
			_, err := json.Marshal(v)
			return err
		}
	}
	// cell computes (or serves) one cell in this process: in the local
	// pool, or as a fleet worker's leased cell.
	cell := func(ctx context.Context, i int) (T, error) {
		var v T
		st.CellRunning(keys[i])
		if ok, err := j.Load(keys[i], &v); err != nil || ok {
			if ok {
				l.settle(i, obs.CellJournal, 0, nil)
			}
			return v, err
		}
		t0 := time.Now()
		v, err := compute(ctx, i)
		if err == nil {
			err = record(keys[i], v)
		}
		if err == nil {
			l.settle(i, obs.CellOK, time.Since(t0), nil)
		}
		return v, err
	}

	var results []T
	var raws []json.RawMessage
	var errs []error
	var err error
	switch {
	case r.Fleet != nil:
		raws, errs, err = fleet.Coordinate(ctx, r.Fleet, keys, l.settle)
	case r.FleetWorker != nil:
		raws, errs, err = r.FleetWorker.Run(ctx, keys, func(ctx context.Context, i int) (any, error) {
			return cell(ctx, i)
		})
	default:
		results, errs, err = parallel.MapErr(ctx, parallel.RunOpts{Workers: r.Workers, KeepGoing: r.KeepGoing}, len(keys), cell)
	}
	if raws != nil {
		results = make([]T, len(keys))
		for i, raw := range raws {
			if raw == nil {
				continue
			}
			if uerr := json.Unmarshal(raw, &results[i]); uerr != nil {
				return results, errs, fmt.Errorf("fleet: decode %s: %w", keys[i], uerr)
			}
		}
	}
	// Settle what the role returned without settling: failed cells, and on
	// a fleet worker the cells other workers computed.
	for i, e := range errs {
		if e != nil {
			l.settle(i, obs.CellFailed, 0, e)
		} else if raws != nil && raws[i] != nil {
			l.settle(i, obs.CellJournal, 0, nil)
		}
	}
	return results, errs, err
}

// ledger records the outcomes of one RunCells grid.
type ledger struct {
	r       *Run
	keys    []string
	mu      sync.Mutex
	settled []bool
	done    int
}

// ledger declares keys as one grid: on /status and in the cell metrics,
// where, as on /status, a key an earlier grid of the run declared counts
// once.
func (r *Run) ledger(keys []string) *ledger {
	r.Status.AddCells(keys...)
	r.mu.Lock()
	if r.declared == nil {
		r.declared = map[string]bool{}
	}
	n := len(r.declared)
	for _, k := range keys {
		r.declared[k] = true
	}
	mCellsDeclared.Add(int64(len(r.declared) - n))
	r.mu.Unlock()
	return &ledger{r: r, keys: keys, settled: make([]bool, len(keys))}
}

// settle records cell i's outcome, once: state obs.CellOK for a cell
// computed for this grid (elapsed is its compute time), obs.CellJournal
// for one served instead (from the journal, or on a fleet worker from the
// coordinator's grid), or obs.CellFailed with the cell's error. It is the
// only writer of a cell's terminal /status state and compute time, the
// mpppb_experiments_cells_* counters and cell_seconds histogram, the
// per-cell progress line, the journal's FAILED record and the run's
// failure list. A later outcome for a settled cell is ignored, and so is
// a cancellation: an interrupted cell is simply absent and recomputes on
// resume.
func (l *ledger) settle(i int, state obs.CellState, elapsed time.Duration, err error) {
	if errors.Is(err, context.Canceled) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.settled[i] {
		return
	}
	l.settled[i] = true
	l.done++
	r, key, how := l.r, l.keys[i], ""
	r.Status.CellDone(key, state, elapsed)
	switch {
	case state == obs.CellFailed:
		mCellsFailed.Inc()
		r.Journal.RecordFailure(key, err)
		r.mu.Lock()
		r.failures = append(r.failures, CellFailure{Key: key, Err: err})
		r.mu.Unlock()
		how = " FAILED"
	case state == obs.CellJournal && r.FleetWorker != nil:
		mCellsJournal.Inc()
		how = " (from coordinator)"
	case state == obs.CellJournal:
		mCellsJournal.Inc()
		how = " (from journal)"
	default:
		mCellsComputed.Inc()
		mCellSeconds.Observe(elapsed.Seconds())
		if r.Fleet != nil {
			how = " (fleet)"
		}
	}
	r.log("%s%s (%d/%d done)", key, how, l.done, len(l.keys))
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
func TrainingMixes(total []workload.Mix) []workload.Mix { return total[:max(len(total)/10, 1)] }

// TestingMixes returns the reporting portion of the canonical mix list.
func TestingMixes(total []workload.Mix) []workload.Mix { return total[max(len(total)/10, 1):] }

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
