package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// rocBySort is the sort-based ROC that ROCCounts.Curve replaced: sort a
// copy of the samples by decreasing confidence and emit one point per
// run of equal confidences. It is the reference the count table must
// reproduce exactly.
func rocBySort(samples []ROCSample) []ROCPoint {
	if len(samples) == 0 {
		return nil
	}
	sorted := make([]ROCSample, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Confidence > sorted[j].Confidence })

	var totalDead, totalLive int
	for _, s := range samples {
		if s.Dead {
			totalDead++
		} else {
			totalLive++
		}
	}

	var points []ROCPoint
	var tp, fp int
	i := 0
	for i < len(sorted) {
		thr := sorted[i].Confidence
		for i < len(sorted) && sorted[i].Confidence == thr {
			if sorted[i].Dead {
				tp++
			} else {
				fp++
			}
			i++
		}
		pt := ROCPoint{Threshold: thr}
		if totalDead > 0 {
			pt.TPR = float64(tp) / float64(totalDead)
		}
		if totalLive > 0 {
			pt.FPR = float64(fp) / float64(totalLive)
		}
		points = append(points, pt)
	}
	return points
}

// TestROCCountsMatchSort: over random sample lists — heavy confidence
// ties, no samples, all dead, all live — the count table's curve equals
// the sort-based reference bit for bit, and so does the curve of a table
// pooled by Add from a split of the samples, after a JSON round trip.
func TestROCCountsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		if trial%50 == 0 {
			n = 0
		}
		span := 1 + rng.Intn(40) // small spans force ties
		mode := trial % 4        // 0, 1: mixed; 2: all dead; 3: all live
		samples := make([]ROCSample, n)
		for i := range samples {
			dead := rng.Intn(2) == 0
			if mode == 2 || mode == 3 {
				dead = mode == 2
			}
			samples[i] = ROCSample{Confidence: rng.Intn(span) - span/2, Dead: dead}
		}
		want := rocBySort(samples)
		if got := ROC(samples); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ROC %v, want %v", trial, got, want)
		}

		cut := 0
		if n > 0 {
			cut = rng.Intn(n + 1)
		}
		pooled := ROCCounts{}
		for _, part := range [][]ROCSample{samples[:cut], samples[cut:]} {
			b, err := json.Marshal(CountROC(part))
			if err != nil {
				t.Fatal(err)
			}
			var c ROCCounts
			if err := json.Unmarshal(b, &c); err != nil {
				t.Fatal(err)
			}
			pooled.Add(c)
		}
		if got := pooled.Curve(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pooled curve %v, want %v", trial, got, want)
		}
		if got := pooled.Samples(); got != n {
			t.Fatalf("trial %d: pooled %d samples, want %d", trial, got, n)
		}
	}
}
