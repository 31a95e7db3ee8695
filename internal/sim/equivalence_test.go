package sim_test

// Parallel/serial equivalence: the experiment tables must be byte-identical
// whether the worker pool runs one goroutine (-j 1, the exact serial code
// path) or many. The tables are rendered to TSV at full float precision —
// 'g' with -1 digits round-trips float64 exactly — so even a 1-ulp
// divergence in any cell fails the comparison. This is the guarantee the
// cmd tools advertise: -j changes wall-clock time, never output.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

func fullPrec(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderSingle serializes every field of a SingleThreadTable, full precision.
func renderSingle(t *experiments.SingleThreadTable) string {
	var b strings.Builder
	cols := t.AllSingleThreadPolicies()
	fmt.Fprintf(&b, "benchmark\t%s\n", strings.Join(cols, "\t"))
	for _, bench := range t.Benchmarks {
		fmt.Fprintf(&b, "%s", bench)
		for _, p := range cols {
			fmt.Fprintf(&b, "\t%s\t%s\t%s", fullPrec(t.IPC[p][bench]),
				fullPrec(t.Speedup[p][bench]), fullPrec(t.MPKI[p][bench]))
		}
		fmt.Fprintln(&b)
	}
	for _, p := range cols {
		fmt.Fprintf(&b, "geomean\t%s\t%s\t%s\t%d\n", p,
			fullPrec(t.GeomeanSpeedup[p]), fullPrec(t.MeanMPKI[p]), t.BestCount[p])
	}
	return b.String()
}

// renderMulti serializes every field of a MultiCoreTable, full precision.
func renderMulti(t *experiments.MultiCoreTable) string {
	var b strings.Builder
	cols := append([]string{"lru"}, t.Policies...)
	fmt.Fprintf(&b, "mix\t%s\n", strings.Join(cols, "\t"))
	for i, mix := range t.Mixes {
		fmt.Fprintf(&b, "%s", mix)
		for _, p := range cols {
			fmt.Fprintf(&b, "\t%s\t%s", fullPrec(t.WeightedSpeedup[p][i]), fullPrec(t.MPKI[p][i]))
		}
		fmt.Fprintln(&b)
	}
	for _, p := range cols {
		fmt.Fprintf(&b, "geomean\t%s\t%s\t%s\t%d\n", p,
			fullPrec(t.GeomeanSpeedup[p]), fullPrec(t.MeanMPKI[p]), t.BelowLRU[p])
	}
	return b.String()
}

func TestSingleThreadTableSerialParallelIdentical(t *testing.T) {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 20_000, 60_000
	benches := workload.Benchmarks()[:2]
	policies := []string{"sdbp", "mpppb"}

	single := func(workers int) string {
		tab, err := experiments.SingleThread(cfg, policies, benches, &experiments.Run{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return renderSingle(tab)
	}
	if serial, par := single(1), single(8); serial != par {
		t.Fatalf("single-thread table differs between -j1 and -j8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
}

func TestMultiCoreTableSerialParallelIdentical(t *testing.T) {
	cfg := sim.MultiCoreConfig()
	cfg.Warmup, cfg.Measure = 20_000, 60_000
	mixes := workload.Mixes(3, workload.DefaultMixSeed)
	policies := []string{"srrip", "mpppb-srrip"}

	multi := func(workers int) string {
		tab, err := experiments.MultiCore(cfg, policies, mixes, &experiments.Run{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return renderMulti(tab)
	}
	if serial, par := multi(1), multi(8); serial != par {
		t.Fatalf("multi-core table differs between -j1 and -j8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
}
