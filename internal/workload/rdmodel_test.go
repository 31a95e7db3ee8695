package workload

import (
	"testing"

	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// TestRDPresetsHitTargetHistogram is the headline statistical property:
// for every rd preset, the synthesized stream's measured reuse-distance
// histogram — computed by the independent Bennett-Kruskal oracle in
// stats.ReuseHistogram, not by the generator's own accounting — lands
// within the preset's declared L1 fit bound of its target. Warmup skips
// the cold-start region where the recency stack is still too shallow to
// serve the deepest buckets (the same convention the simulator's warmup
// uses); its length is sized from the model: the stack grows only on cold
// draws, so depth D fills after about D/coldFraction accesses.
func TestRDPresetsHitTargetHistogram(t *testing.T) {
	for _, bench := range []string{"rd_server", "rd_kv", "rd_cdn"} {
		g := NewGenerator(SegmentID{Bench: bench, Seg: 1}, CoreBase(0)).(*RDGen)
		model := g.Model()
		targets := model.Targets()
		coldFrac := targets[len(targets)-1]
		warmup := int(3 * float64(model.MaxDistance()) / coldFrac)
		measure := 150000
		n := warmup + measure

		blocks := make([]uint64, n)
		var rec trace.Record
		for i := range blocks {
			g.Next(&rec)
			blocks[i] = rec.Block()
		}
		counts, cold := stats.ReuseHistogram(blocks, model.Bounds(), warmup)
		fit := model.L1Fit(counts, cold)
		if fit > model.FitBound {
			t.Errorf("%s: measured L1 fit %.4f exceeds declared bound %.4f (counts %v cold %d)",
				bench, fit, model.FitBound, counts, cold)
		}
		// Nothing may land past the deepest bucket: the synthesizer's
		// recency stack is capped at MaxDistance.
		if over := counts[len(counts)-1]; over != 0 {
			t.Errorf("%s: %d accesses measured beyond the deepest bucket", bench, over)
		}
		// The generator's online fit agrees with the oracle's steady-state
		// view to within the cold-start transient it includes.
		if online := g.Fit(); online > model.FitBound+0.15 {
			t.Errorf("%s: online fit %.4f implausibly far from oracle fit %.4f", bench, online, fit)
		}
	}
}

// TestRDArbitraryModel: the family accepts arbitrary histograms, not just
// presets.
func TestRDArbitraryModel(t *testing.T) {
	model := RDModel{
		Buckets:  []RDBucket{{Hi: 4, Weight: 0.5}, {Hi: 64, Weight: 0.3}},
		Cold:     0.2,
		FitBound: 0.06,
	}
	g := NewRD("custom", 99, 1<<40, model)
	g.Reset()
	const warmup, measure = 2000, 60000
	blocks := make([]uint64, warmup+measure)
	var rec trace.Record
	for i := range blocks {
		g.Next(&rec)
		blocks[i] = rec.Block()
	}
	counts, cold := stats.ReuseHistogram(blocks, model.Bounds(), warmup)
	if fit := model.L1Fit(counts, cold); fit > model.FitBound {
		t.Fatalf("custom model L1 fit %.4f exceeds %.4f", fit, model.FitBound)
	}
}

func TestRDModelValidation(t *testing.T) {
	cases := []RDModel{
		{}, // no buckets
		{Buckets: []RDBucket{{Hi: 0, Weight: 1}}},                     // zero edge
		{Buckets: []RDBucket{{Hi: 8, Weight: 1}, {Hi: 8, Weight: 1}}}, // not ascending
		{Buckets: []RDBucket{{Hi: 8, Weight: -1}}},                    // negative weight
		{Buckets: []RDBucket{{Hi: 8, Weight: 0}}, Cold: 0},            // zero total
	}
	for i, m := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewRD("bad", 1, 0, m)
		}()
	}
}

// TestRStackMatchesNaiveMoveToFront: differential unit test of the
// order-statistic treap against a plain move-to-front slice over a long
// random operation sequence.
func TestRStackMatchesNaiveMoveToFront(t *testing.T) {
	s := newRStack(123, 64)
	var naive []uint64
	rng := xrand.New(456)
	const depthCap = 200
	for op := 0; op < 20000; op++ {
		if n := s.Len(); n != len(naive) {
			t.Fatalf("op %d: Len %d vs naive %d", op, n, len(naive))
		}
		switch r := rng.Intn(10); {
		case r < 4 || len(naive) == 0: // push a fresh block
			b := uint64(op) + 1000000
			s.PushFront(b)
			naive = append([]uint64{b}, naive...)
		case r < 9: // take at a random rank and move to front
			rank := rng.Intn(len(naive))
			got := s.TakeAt(rank)
			want := naive[rank]
			if got != want {
				t.Fatalf("op %d: TakeAt(%d) = %d, want %d", op, rank, got, want)
			}
			naive = append(naive[:rank], naive[rank+1:]...)
			s.PushFront(got)
			naive = append([]uint64{got}, naive...)
		default: // evict the LRU tail
			s.DropLast()
			naive = naive[:len(naive)-1]
		}
		if len(naive) > depthCap {
			s.DropLast()
			naive = naive[:len(naive)-1]
		}
	}
	// Drain fully through TakeAt(0) and compare the final ordering.
	for i := 0; s.Len() > 0; i++ {
		if got := s.TakeAt(0); got != naive[i] {
			t.Fatalf("drain %d: %d, want %d", i, got, naive[i])
		}
	}
	// Reset restarts cleanly.
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Len != 0 after Reset")
	}
	s.PushFront(7)
	if got := s.TakeAt(0); got != 7 {
		t.Fatalf("post-Reset TakeAt = %d", got)
	}
}

func TestFitMetricName(t *testing.T) {
	if got := fitMetricName("rd_server-1"); got != "mpppb_workload_rd_fit_l1_rd_server_1" {
		t.Fatalf("fitMetricName = %q", got)
	}
}
