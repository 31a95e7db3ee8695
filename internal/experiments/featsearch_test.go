package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/sim"
)

// tinyEvaluator builds an evaluator over two short segments.
func tinyEvaluator(r *Run) *Evaluator {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup = 30_000
	cfg.Measure = 120_000
	return NewEvaluator(cfg, TrainingSegments(2), r)
}

func TestEvaluatorDeterministic(t *testing.T) {
	params := WithParams(core.SingleThreadParams())
	a, err := tinyEvaluator(&Run{Workers: 1}).MPKI(params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyEvaluator(&Run{Workers: 2}).MPKI(params)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("evaluator not deterministic across -j: %g vs %g", a[0], b[0])
	}
	if a[0] <= 0 {
		t.Fatalf("MPKI %g", a[0])
	}
}

// TestEvaluatorCountsJournalHits: a resumed evaluation replays every
// segment from the journal and still counts it, so a resumed search
// reports the same evaluation count and MPKI as an uninterrupted one.
func TestEvaluatorCountsJournalHits(t *testing.T) {
	fp := journal.Fingerprint{Config: "evaluator-test", Version: "test", Seed: 1}
	path := filepath.Join(t.TempDir(), "run.journal")
	params := WithParams(core.SingleThreadParams())

	jrnl, err := journal.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	cold := tinyEvaluator(&Run{Journal: jrnl})
	want, err := cold.MPKI(params)
	if err != nil {
		t.Fatal(err)
	}
	jrnl.Close()

	if jrnl, err = journal.Resume(path, fp); err != nil {
		t.Fatal(err)
	}
	defer jrnl.Close()
	if n := jrnl.Len(); n != len(cold.training) {
		t.Fatalf("journal holds %d entries, want one per training segment (%d)", n, len(cold.training))
	}
	st := obs.NewRunStatus("test")
	warm := tinyEvaluator(&Run{Journal: jrnl, Status: st})
	got, err := warm.MPKI(params)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] || warm.Evals != cold.Evals || warm.Evals != len(warm.training) {
		t.Fatalf("resumed: MPKI %g, %d evals; cold: MPKI %g, %d evals", got[0], warm.Evals, want[0], cold.Evals)
	}
	for key, state := range st.Snapshot().Cells {
		if state != obs.CellJournal {
			t.Errorf("resumed cell %s is %s, want %s", key, state, obs.CellJournal)
		}
	}
}

// TestEvaluatorStatusCells: one evaluation declares one /status cell per
// training segment, each keyed by kind, machine, the params' hash and
// segment, and a search that scores the same candidate again still
// counts each cell once.
func TestEvaluatorStatusCells(t *testing.T) {
	st := obs.NewRunStatus("test")
	ev := tinyEvaluator(&Run{Status: st})
	params := core.SingleThreadParams()
	for range 2 {
		if _, err := ev.MPKI(WithParams(params)); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Snapshot()
	if snap.TotalCells != len(ev.training) || snap.DoneCells != len(ev.training) {
		t.Fatalf("%d cells declared, %d done; want %d of each", snap.TotalCells, snap.DoneCells, len(ev.training))
	}
	for i, key := range snap.CellOrder {
		if want := cellKey("fast", ev.cfg, journal.ConfigHash(params), ev.training[i], 0); key != want {
			t.Errorf("cell %d is %q, want %q", i, key, want)
		}
		if snap.Cells[key] != obs.CellOK {
			t.Errorf("cell %s is %s, want %s", key, snap.Cells[key], obs.CellOK)
		}
	}
}

// TestEvaluatorReturnsCellFailure: a cell that panics (an empty feature
// set) comes back as the evaluation's error under both failure policies.
func TestEvaluatorReturnsCellFailure(t *testing.T) {
	params := core.SingleThreadParams()
	params.Features = []core.Feature{}
	for name, r := range map[string]*Run{"failfast": nil, "keepgoing": {KeepGoing: true}} {
		_, err := tinyEvaluator(r).MPKI(WithParams(params))
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v, want the cell's panic", name, err)
		}
	}
}

func TestEvaluatorCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tinyEvaluator(&Run{Ctx: ctx, KeepGoing: true}).MPKI(WithParams(core.SingleThreadParams())); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}
