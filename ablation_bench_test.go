package mpppb

// Ablation benchmarks for the design choices DESIGN.md calls out beyond the
// paper's own figures: the perceptron training threshold θ, the sampler
// size, and bypass on/off. Each reports MPKI over a fixed mixed workload so
// the sensitivity of the design point is visible from `go test -bench`.

import (
	"fmt"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/experiments"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// ablationMPKI measures average fast-sim MPKI over a small diverse workload
// sample for one MPPPB parameterization, with the evaluator the Section 5
// searches score candidates by.
func ablationMPKI(b *testing.B, params core.Params) float64 {
	b.Helper()
	cfg := sim.SingleThreadConfig()
	cfg.Warmup = 150_000
	cfg.Measure = 500_000
	ids := []workload.SegmentID{
		{Bench: "libquantum_like", Seg: 0},
		{Bench: "gcc_like", Seg: 0},
		{Bench: "data_caching_like", Seg: 0},
	}
	mpki, err := experiments.NewEvaluator(cfg, ids, nil).MPKI(experiments.WithParams(params))
	if err != nil {
		b.Fatal(err)
	}
	return mpki[0]
}

// BenchmarkAblationTheta sweeps the perceptron training threshold.
func BenchmarkAblationTheta(b *testing.B) {
	for _, theta := range []int{8, 40, 120} {
		b.Run(fmt.Sprintf("theta=%d", theta), func(b *testing.B) {
			params := core.SingleThreadParams()
			params.Theta = theta
			for i := 0; i < b.N; i++ {
				b.ReportMetric(ablationMPKI(b, params), "mpki")
			}
		})
	}
}

// BenchmarkAblationSamplerSets sweeps the number of sampled sets around the
// paper's 64-per-core choice.
func BenchmarkAblationSamplerSets(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("sets=%d", n), func(b *testing.B) {
			params := core.SingleThreadParams()
			params.SamplerSets = n
			for i := 0; i < b.N; i++ {
				b.ReportMetric(ablationMPKI(b, params), "mpki")
			}
		})
	}
}

// BenchmarkAblationBypass compares the full MPPPB against placement/
// promotion only (bypass disabled), isolating the bypass contribution.
func BenchmarkAblationBypass(b *testing.B) {
	for _, bypass := range []bool{true, false} {
		b.Run(fmt.Sprintf("bypass=%v", bypass), func(b *testing.B) {
			params := core.SingleThreadParams()
			params.BypassEnabled = bypass
			for i := 0; i < b.N; i++ {
				b.ReportMetric(ablationMPKI(b, params), "mpki")
			}
		})
	}
}

// BenchmarkAblationDefaultPolicy compares the two default replacement
// policies of Section 3.7 under the same features and thresholds.
func BenchmarkAblationDefaultPolicy(b *testing.B) {
	for _, def := range []struct {
		name string
		d    core.DefaultPolicy
		pi   [3]int
	}{
		{"mdpp", core.DefaultMDPP, [3]int{15, 12, 9}},
		{"srrip", core.DefaultSRRIP, [3]int{3, 2, 1}},
	} {
		b.Run(def.name, func(b *testing.B) {
			params := core.SingleThreadParams()
			params.Default = def.d
			params.Pi = def.pi
			for i := 0; i < b.N; i++ {
				b.ReportMetric(ablationMPKI(b, params), "mpki")
			}
		})
	}
}
