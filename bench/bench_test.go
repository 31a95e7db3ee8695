package main

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from full-scale seed-0 runs")

// benchmarkSpec reads the metric declarations of ../BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkResult requires res to report exactly the declared metrics, each
// with its declared unit and a positive value (a per-layer count may be
// 0), and no failed operation.
func checkResult(t *testing.T, res result, declared map[string]string, layers bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if got, want := sortedKeys(res.Metrics), sortedKeys(declared); !slices.Equal(got, want) {
		t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for name, v := range res.Metrics {
		if v.Unit != declared[name] {
			t.Errorf("%s: unit %q, BENCHMARK.json declares %q", name, v.Unit, declared[name])
		}
		if !(v.Value > 0) && !(layers && v.Value == 0) {
			t.Errorf("%s = %v, want > 0", name, v.Value)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestWorkloadsReducedScale runs every workload at 1/50 scale, untraced
// and traced, and checks the result lines against BENCHMARK.json and the
// digests against each other.
func TestWorkloadsReducedScale(t *testing.T) {
	endToEndSpec, perLayerSpec := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 3, scale: 50}
			plain, _, err := measure(w, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := plain.result(endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndSpec, false)

			again, _, err := measure(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(again.digests, plain.digests) {
				t.Errorf("digests differ between runs:\n%v\n%v", plain.digests, again.digests)
			}

			o.traced = true
			traced, tr, err := measure(w, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err = traced.result(perLayer)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayerSpec, true)
			if len(plain.digests) == 0 || !maps.Equal(traced.digests, plain.digests) {
				t.Errorf("traced digests %v, untraced %v", traced.digests, plain.digests)
			}
			if err := tr.write(t.TempDir() + "/spans.json"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGoldenDigests runs every workload at seed 0 and full scale and
// compares each operation's digest with testdata/digests.json; -update
// rewrites the file instead.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale runs")
	}
	all := map[string]map[string]string{}
	for _, w := range workloads {
		rep, _, err := measure(w, options{scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		all[w.name] = rep.digests
		if !*update && rep.failed > 0 {
			t.Errorf("%s: %v", w.name, rep.notes)
		}
	}
	if *update {
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWrapGenForwardsRefillInterfaces checks that the traced generator
// offers exactly the refill interfaces of the generator it wraps, so a
// traced cell reads its records by the same path as an untraced one.
func TestWrapGenForwardsRefillInterfaces(t *testing.T) {
	recs := trace.Capture(workload.NewGenerator(workload.SegmentID{Bench: "gcc_like", Seg: 0}, 0), 1000)
	gens := []trace.Generator{
		workload.NewGenerator(workload.SegmentID{Bench: "mcf_like", Seg: 1}, 0), // batch only
		trace.NewColumnarReplay("cols", trace.ColumnsOf(recs)),                  // batch and columns
		nextOnly{trace.NewReplayGenerator("next", recs)},
		columnsOnly{trace.NewColumnarReplay("cols", trace.ColumnsOf(recs))},
	}
	for _, g := range gens {
		w := wrapGen(g, &calls{})
		_, b1 := g.(trace.BatchGenerator)
		_, b2 := w.(trace.BatchGenerator)
		_, c1 := g.(trace.ColumnBatcher)
		_, c2 := w.(trace.ColumnBatcher)
		if b1 != b2 || c1 != c2 {
			t.Errorf("%T: batch %v→%v, columns %v→%v", g, b1, b2, c1, c2)
		}
	}
}

type nextOnly struct{ trace.Generator }

type columnsOnly struct{ *trace.ColumnarReplay }

func (c columnsOnly) NextBatch() {} // hides the replay's NextBatch

// TestVerdict checks the compare rule on synthetic samples.
func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	for _, tc := range []struct {
		name   string
		p, c   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"clear gain", parent, shift(parent, 5), true, 0.08, "better"},
		{"clear gain, lower is better", parent, shift(parent, -5), false, 0.08, "better"},
		{"loss beyond the bound", parent, shift(parent, -10), true, 0.08, "worse"},
		{"loss within the bound", parent, shift(parent, -2), true, 0.08, "unchanged"},
		{"no change", parent, parent, true, 0.08, "unchanged"},
		{"gain inside the parent's spread", parent, shift(parent, 0.5), true, 0.08, "unchanged"},
		{"fewer than ten pairs", parent[:9], shift(parent[:9], 5), true, 0.08, "unresolved"},
		{"spread wider than the bound", noisy, shift(noisy, -1), true, 0.08, "unresolved"},
		{"spread wider, loss beyond the bound", noisy, shift(noisy, -30), true, 0.08, "worse"},
	} {
		if got := verdict(tc.p, tc.c, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles runs -compare on files of synthetic result lines.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput float64) string {
		var b []byte
		for i := range 10 {
			line, err := json.Marshal(resultLine{Workload: "st_timing", Result: result{
				Correct: true, Attempted: 8,
				Metrics: map[string]value{"llc_acc_per_s": {Value: tput + float64(i%3), Unit: "acc/s"}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, faster, slower := write("p", 1000), write("f", 1100), write("s", 500)
	var out, errs strings.Builder
	if code := compareFiles(parent, faster, "../BENCHMARK.json", &out, &errs); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("faster change: exit %d, output\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := compareFiles(parent, slower, "../BENCHMARK.json", &out, &errs); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower change: exit %d, output\n%s%s", code, out.String(), errs.String())
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) (the exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
