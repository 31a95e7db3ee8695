package main

// Dueler goldens: the set-dueling policies no other golden covers — DRRIP,
// DIP, dynamic MDPP and the MPPPB+Hawkeye hybrid single-thread, and the
// hybrid and adaptive MPPPB over SRRIP on two 4-core mixes — pinned at
// reduced scale. Every value prints at full float64 precision, so one LLC
// miss more or less anywhere changes the bytes.
//
// Regenerate after an intentional output change with:
//
//	go test ./cmd/mpppb-experiments -run DuelerGolden -update

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/sim"
)

const duelerGoldenPath = "testdata/duelers.golden.tsv"

func TestDuelerGoldenTSV(t *testing.T) {
	st := sim.SingleThreadConfig()
	st.Warmup, st.Measure = 100_000, 400_000
	mc := sim.MultiCoreConfig()
	mc.Warmup, mc.Measure = 50_000, 200_000
	r := &runner{
		stCfg:      st,
		mcCfg:      mc,
		mixCount:   2,
		stPolicies: []string{"drrip", "dip", "dyn-mdpp", "hybrid"},
		stBenches:  []string{"mcf_like"},
		mcPolicies: []string{"hybrid-srrip", "mpppb-adaptive-srrip"},
	}
	stTable, err := experiments.SingleThread(r.stCfg, r.stPolicies, r.stBenches, r.opts)
	if err != nil {
		t.Fatal(err)
	}
	mcTable, err := r.multiTable()
	if err != nil {
		t.Fatal(err)
	}

	exact := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	b.WriteString("# single-thread duelers: per-benchmark MPKI and IPC\n")
	b.WriteString("policy\tbenchmark\tmpki\tipc\n")
	for _, p := range stTable.AllSingleThreadPolicies() {
		for _, bench := range stTable.Benchmarks {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", p, bench, exact(stTable.MPKI[p][bench]), exact(stTable.IPC[p][bench]))
		}
	}
	b.WriteString("# multi-core duelers: per-mix shared-LLC MPKI and weighted speedup over LRU\n")
	b.WriteString("policy\tmix\tmpki\tweighted_speedup\n")
	for _, p := range append([]string{"lru"}, mcTable.Policies...) {
		for i, mix := range mcTable.Mixes {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", p, mix, exact(mcTable.MPKI[p][i]), exact(mcTable.WeightedSpeedup[p][i]))
		}
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(duelerGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(duelerGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("dueler output differs from %s\n--- got ---\n%s\n--- want ---\n%s", duelerGoldenPath, got, want)
	}
}
