package experiments

import (
	"context"
	"reflect"
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
