package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestReplaceMatchesLeastRecentThenTouch: Replace, an eviction's one
// pass, leaves every rank where LeastRecent followed by Touch(set, way,
// 0) leaves it and returns that way, from stacks scrambled by moves to
// arbitrary ranks, for the ways around whole lane words (1-20), the lane
// limit (127-129) and the scalar-only widths above it.
func TestReplaceMatchesLeastRecentThenTouch(t *testing.T) {
	const sets = 3
	var geometries []int
	for w := 1; w <= 20; w++ {
		geometries = append(geometries, w)
	}
	geometries = append(geometries, 64, 127, 128, 129, 255)
	for _, ways := range geometries {
		r, ref := NewRecency(sets, ways), NewRecency(sets, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		for step := 0; step < 2000; step++ {
			set := rng.Intn(sets)
			if rng.Intn(2) == 0 {
				way, to := rng.Intn(ways), rng.Intn(ways)
				r.Touch(set, way, to)
				ref.Touch(set, way, to)
				continue
			}
			want := ref.LeastRecent(set)
			ref.Touch(set, want, 0)
			if got := r.Replace(set); got != want {
				t.Fatalf("ways %d step %d: Replace took way %d, LeastRecent way %d", ways, step, got, want)
			}
			if !bytes.Equal(r.ranks, ref.ranks) {
				t.Fatalf("ways %d step %d: ranks %v, want %v", ways, step, r.ranks, ref.ranks)
			}
		}
	}
}
