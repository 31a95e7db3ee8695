package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// computed runs f and returns how many cells it computed (journal hits
// excluded).
func computed(t *testing.T, f func() error) uint64 {
	t.Helper()
	before := mCellsComputed.Value()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return mCellsComputed.Value() - before
}

// TestMultiCoreCellsShared: in one run whose journal has no file, fig9
// and fig10 after fig4 compute only their sweep cells, because LRU, the
// standalone runs and fig9's original point (mpppb-srrip) are fig4's
// cells, and fig10 runs the set its duplicated feature leaves once. Every
// table equals the one a separate run computes.
func TestMultiCoreCellsShared(t *testing.T) {
	cfg := tinyMC()
	cfg.Warmup, cfg.Measure = 10_000, 30_000
	mixes := workload.Mixes(2, 9)
	feats := core.SingleThreadSetA()
	if feats[12] != feats[13] {
		t.Fatalf("Table 1(a) no longer lists %s twice", feats[12])
	}
	policies := []string{"srrip", "mpppb-srrip"}
	shared := &Run{Journal: journal.Memory(), Workers: 4}
	var mc *MultiCoreTable
	var f9 *Fig9Result
	var f10 *Fig10Result
	if n := computed(t, func() (err error) { mc, err = MultiCore(cfg, policies, mixes, shared); return }); n == 0 {
		t.Fatal("fig4 computed no cells")
	}
	if n := computed(t, func() (err error) { f9, err = Fig9UniformAssociativity(cfg, mixes, shared); return }); n != uint64(core.MaxA*len(mixes)) {
		t.Errorf("fig9 after fig4 computed %d cells, want %d (uniform A only)", n, core.MaxA*len(mixes))
	}
	if n := computed(t, func() (err error) { f10, err = Fig10FeatureAblation(cfg, feats, mixes, shared); return }); n != uint64(len(feats)*len(mixes)) {
		t.Errorf("fig10 after fig4 computed %d cells, want %d (the full set and %d distinct omissions)", n, len(feats)*len(mixes), len(feats)-1)
	}

	mcAlone, err := MultiCore(cfg, policies, mixes, &Run{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	f9Alone, err := Fig9UniformAssociativity(cfg, mixes, &Run{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	f10Alone, err := Fig10FeatureAblation(cfg, feats, mixes, &Run{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mc, mcAlone) {
		t.Errorf("shared fig4 %+v\nalone %+v", mc, mcAlone)
	}
	if !reflect.DeepEqual(f9, f9Alone) {
		t.Errorf("shared fig9 %+v\nalone %+v", f9, f9Alone)
	}
	if !reflect.DeepEqual(f10, f10Alone) {
		t.Errorf("shared fig10 %+v\nalone %+v", f10, f10Alone)
	}
}

// TestMultiCoreMachinesDoNotShare: the machine is part of every cell's
// key, so one run of MultiCore under two LLC sizes computes both grids in
// full and gives each size the table of a separate run.
func TestMultiCoreMachinesDoNotShare(t *testing.T) {
	small := tinyMC()
	large := tinyMC()
	large.LLCSize *= 2
	mixes := workload.Mixes(1, 9)
	policies := []string{"mpppb-srrip"}
	shared := &Run{Journal: journal.Memory(), Workers: 4}
	for _, cfg := range []sim.Config{small, large} {
		var tab *MultiCoreTable
		// LRU and mpppb-srrip on the mix, and its four segments alone.
		if n := computed(t, func() (err error) { tab, err = MultiCore(cfg, policies, mixes, shared); return }); n != 6 {
			t.Errorf("LLC %d B: computed %d cells, want 6", cfg.LLCSize, n)
		}
		alone, err := MultiCore(cfg, policies, mixes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tab, alone) {
			t.Errorf("LLC %d B: shared run %+v, separate run %+v", cfg.LLCSize, tab, alone)
		}
	}
}

// TestCellsGaugeCountsKeysOnce: two grids that share a key declare three
// distinct cells, and the cells gauge, like /status, counts three.
func TestCellsGaugeCountsKeysOnce(t *testing.T) {
	st := obs.NewRunStatus("test")
	r := &Run{Journal: journal.Memory(), Status: st}
	before := mCellsDeclared.Value()
	for _, keys := range [][]string{{"a", "b"}, {"b", "c"}} {
		if _, _, err := RunCells(r, keys, func(context.Context, int) (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := mCellsDeclared.Value()-before, int64(st.Snapshot().TotalCells); got != want || want != 3 {
		t.Fatalf("cells gauge grew by %d, /status holds %d cells; want 3 for both", got, want)
	}
}

// TestSingleThreadCellsShared: in one run whose journal has no file,
// fig6, fig3, figadapt and table3 on overlapping segments each compute
// only the cells no earlier experiment declared. fig3's MIN references
// are fig6's MIN cells; fig3's paper set (the registry's mpppb) is
// figadapt's static policy at seed 0; and table3's default set is the
// same mpppb, run by fig3 or figadapt. Every table equals the one a
// separate run computes.
func TestSingleThreadCellsShared(t *testing.T) {
	cfg := tinyST()
	cfg.Warmup, cfg.Measure = 30_000, 120_000
	benches := []string{"mcf_like"}
	fig6Segs := []workload.SegmentID{{Bench: "mcf_like", Seg: 0}, {Bench: "mcf_like", Seg: 1}, {Bench: "mcf_like", Seg: 2}}
	training := []workload.SegmentID{{Bench: "mcf_like", Seg: 1}, {Bench: "sphinx3_like", Seg: 0}}
	adaptSegs := []workload.SegmentID{{Bench: "sphinx3_like", Seg: 0}, {Bench: "sphinx3_like", Seg: 1}}
	table3Segs := []workload.SegmentID{{Bench: "mcf_like", Seg: 1}, {Bench: "sphinx3_like", Seg: 1}, {Bench: "sphinx3_like", Seg: 2}}
	runs := []struct {
		name string
		// shared counts the cells an earlier experiment computed.
		shared int
		run    func(r *Run) (any, error)
	}{
		{"fig6", 0, func(r *Run) (any, error) { return SingleThread(cfg, []string{"mpppb"}, benches, r) }},
		// MIN on mcf_like-1.
		{"fig3", 1, func(r *Run) (any, error) { return Fig3FeatureSearch(cfg, training, 2, 2, 5, r) }},
		// mpppb at seed 0 on sphinx3_like-0.
		{"figadapt", 1, func(r *Run) (any, error) {
			return AdaptiveVsStatic(cfg, "mpppb", "mpppb-adaptive", adaptSegs, 2, r)
		}},
		// mpppb on mcf_like-1 (fig3) and sphinx3_like-1 (figadapt).
		{"table3", 2, func(r *Run) (any, error) { return Table3FeatureBenefit(cfg, nil, table3Segs, r) }},
	}
	if !reflect.DeepEqual(fig6Segs[1], training[0]) || !reflect.DeepEqual(training[1], adaptSegs[0]) {
		t.Fatal("the segments no longer overlap as the counts assume")
	}
	shared := &Run{Journal: journal.Memory(), Workers: 4}
	for _, e := range runs {
		var got, alone any
		nShared := computed(t, func() (err error) { got, err = e.run(shared); return })
		nAlone := computed(t, func() (err error) { alone, err = e.run(&Run{Journal: journal.Memory(), Workers: 4}); return })
		if nShared != nAlone-uint64(e.shared) {
			t.Errorf("%s computed %d cells after the others, %d alone; want %d fewer", e.name, nShared, nAlone, e.shared)
		}
		if !reflect.DeepEqual(got, alone) {
			t.Errorf("shared %s %+v\nalone %+v", e.name, got, alone)
		}
	}
}

// sharedJournalEqualsAlone runs each of calls on one journal, in order,
// and requires each to return what it returns on a run of its own: the
// cells of one must never answer for another that reads something else.
func sharedJournalEqualsAlone(t *testing.T, calls map[string]func(r *Run) (any, error), order ...string) {
	t.Helper()
	shared := &Run{Journal: journal.Memory(), Workers: 4}
	for _, name := range order {
		got, err := calls[name](shared)
		if err != nil {
			t.Fatalf("%s on the shared journal: %v", name, err)
		}
		alone, err := calls[name](&Run{Workers: 4})
		if err != nil {
			t.Fatalf("%s alone: %v", name, err)
		}
		if !reflect.DeepEqual(got, alone) {
			t.Errorf("%s on a journal shared with %v:\n%+v\nalone:\n%+v", name, order, got, alone)
		}
	}
}

// TestSingleThreadMachinesDoNotShare: the machine is part of every
// single-thread key, so fig6 under a 2 MB and then a 512 KB LLC, and the
// Evaluator under both, each give the numbers of a separate run.
func TestSingleThreadMachinesDoNotShare(t *testing.T) {
	large := tinyST()
	small := tinyST()
	small.LLCSize = 512 << 10
	seg := []workload.SegmentID{{Bench: "sphinx3_like", Seg: 0}}
	calls := map[string]func(r *Run) (any, error){}
	for name, cfg := range map[string]sim.Config{"2MB": large, "512KB": small} {
		calls["fig6 "+name] = func(r *Run) (any, error) {
			return SingleThread(cfg, []string{"mpppb"}, []string{"sphinx3_like"}, r)
		}
		calls["evaluator "+name] = func(r *Run) (any, error) {
			return NewEvaluator(cfg, seg, r).MPKI(WithParams(core.SingleThreadParams()))
		}
	}
	sharedJournalEqualsAlone(t, calls, "fig6 2MB", "fig6 512KB")
	sharedJournalEqualsAlone(t, calls, "evaluator 2MB", "evaluator 512KB")
}

// TestSingleThreadPolicyListsDoNotShare: the policy is part of every key,
// so fig6 with mpppb and then with hawkeye on one journal gives each list
// its own columns.
func TestSingleThreadPolicyListsDoNotShare(t *testing.T) {
	calls := map[string]func(r *Run) (any, error){}
	for _, p := range []string{"mpppb", "hawkeye"} {
		calls[p] = func(r *Run) (any, error) { return SingleThread(tinyST(), []string{p}, []string{"sphinx3_like"}, r) }
	}
	sharedJournalEqualsAlone(t, calls, "mpppb", "hawkeye")
}

// TestTable3FeatureSetsDoNotShare: table3 under two feature sets reads
// each set's own cells, including the full set's.
func TestTable3FeatureSetsDoNotShare(t *testing.T) {
	segs := []workload.SegmentID{{Bench: "sphinx3_like", Seg: 0}, {Bench: "gcc_like", Seg: 0}}
	calls := map[string]func(r *Run) (any, error){
		"1a": func(r *Run) (any, error) { return Table3FeatureBenefit(tinyST(), core.SingleThreadSetA()[:3], segs, r) },
		"1b": func(r *Run) (any, error) { return Table3FeatureBenefit(tinyST(), core.SingleThreadSetB()[:3], segs, r) },
	}
	sharedJournalEqualsAlone(t, calls, "1a", "1b")
}

// TestAdaptiveSeedCountsDoNotShare: figadapt at one seed and then at two
// reads a cell per seed, so the second run's spread covers both seeds.
func TestAdaptiveSeedCountsDoNotShare(t *testing.T) {
	segs := []workload.SegmentID{{Bench: "gcc_like", Seg: 0}}
	calls := map[string]func(r *Run) (any, error){}
	for _, seeds := range []int{1, 2} {
		calls[fmt.Sprint(seeds)] = func(r *Run) (any, error) {
			return AdaptiveVsStatic(tinyST(), "mpppb", "mpppb-adaptive", segs, seeds, r)
		}
	}
	sharedJournalEqualsAlone(t, calls, "1", "2")
}

// TestFig3RandomPhaseIsOneGrid: the random sets, the paper's set and the
// LRU and MIN reference lines reach RunCells as one grid, before any
// random set's score is reported.
func TestFig3RandomPhaseIsOneGrid(t *testing.T) {
	cfg := tinyST()
	cfg.Warmup, cfg.Measure = 30_000, 120_000
	training := TrainingSegments(2)
	const nRandom = 3
	var lines []string
	r := &Run{Progress: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }}
	if _, err := Fig3FeatureSearch(cfg, training, nRandom, 1, 7, r); err != nil {
		t.Fatal(err)
	}
	size := (nRandom + 3) * len(training)
	if len(lines) < size {
		t.Fatalf("%d progress lines, want at least %d", len(lines), size)
	}
	kinds := map[string]int{}
	for _, line := range lines[:size] {
		if !strings.HasSuffix(line, fmt.Sprintf("/%d done)", size)) {
			t.Fatalf("%q is not a cell of a %d-cell grid; lines:\n%s", line, size, strings.Join(lines, "\n"))
		}
		parts := strings.Split(line, "/")
		switch {
		case parts[0] == "min":
			kinds["min"]++
		case parts[0] == "fast" && (parts[2] == "lru" || parts[2] == "mpppb"):
			kinds[parts[2]]++
		case parts[0] == "fast":
			kinds["random"]++
		}
	}
	want := map[string]int{"min": len(training), "lru": len(training), "mpppb": len(training), "random": nRandom * len(training)}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("first grid holds %v, want %v", kinds, want)
	}
	if !strings.HasPrefix(lines[size], "fig3 random set 1/") {
		t.Errorf("line after the first grid is %q, want the first random set's score", lines[size])
	}
}

// TestSingleThreadFailureRules: with KeepGoing, a failed MIN cell makes
// its segment's LRU and MIN entries NaN, and every policy's speedup on
// its benchmark; a failed policy cell makes only that policy's entries
// NaN. The cells are injected through the journal: an entry that does
// not decode as a cell fails it.
func TestSingleThreadFailureRules(t *testing.T) {
	cfg := tinyST()
	benches := []string{"gcc_like", "mcf_like"}
	jrnl := journal.Memory()
	failMIN, failPolicy := workload.SegmentID{Bench: "gcc_like", Seg: 0}, workload.SegmentID{Bench: "mcf_like", Seg: 1}
	for _, b := range benches {
		for s := 0; s < workload.SegmentsPerBenchmark; s++ {
			id := workload.SegmentID{Bench: b, Seg: s}
			var minCell, mpppb any = cell{IPC: []float64{1.5}, MPKI: 2, LRU: &cell{IPC: []float64{1}, MPKI: 4}}, cell{IPC: []float64{1.2}, MPKI: 3}
			if id == failMIN {
				minCell = "not a cell"
			}
			if id == failPolicy {
				mpppb = "not a cell"
			}
			jrnl.Record(cellKey("min", cfg, "min", id, 0), minCell)
			jrnl.Record(cellKey("timed", cfg, "mpppb", id, 0), mpppb)
		}
	}
	tab, err := SingleThread(cfg, []string{"mpppb"}, benches, &Run{Journal: jrnl, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.IsNaN
	if g := "gcc_like"; !nan(tab.IPC["lru"][g]) || !nan(tab.MPKI["min"][g]) || !nan(tab.Speedup["mpppb"][g]) || nan(tab.IPC["mpppb"][g]) || nan(tab.MPKI["mpppb"][g]) {
		t.Errorf("failed MIN cell: lru IPC %g, min MPKI %g, mpppb speedup %g, IPC %g, MPKI %g; want NaN for LRU, MIN and the speedup only",
			tab.IPC["lru"][g], tab.MPKI["min"][g], tab.Speedup["mpppb"][g], tab.IPC["mpppb"][g], tab.MPKI["mpppb"][g])
	}
	if m := "mcf_like"; nan(tab.IPC["lru"][m]) || nan(tab.MPKI["min"][m]) || !nan(tab.Speedup["mpppb"][m]) || !nan(tab.MPKI["mpppb"][m]) {
		t.Errorf("failed mpppb cell: lru IPC %g, min MPKI %g, mpppb speedup %g, MPKI %g; want NaN for mpppb only",
			tab.IPC["lru"][m], tab.MPKI["min"][m], tab.Speedup["mpppb"][m], tab.MPKI["mpppb"][m])
	}
	want := []string{cellKey("min", cfg, "min", failMIN, 0), cellKey("timed", cfg, "mpppb", failPolicy, 0)}
	if !reflect.DeepEqual(tab.FailedCells, want) {
		t.Errorf("FailedCells %v, want %v", tab.FailedCells, want)
	}
}
