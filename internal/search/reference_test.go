package search

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/xrand"
)

// The reference forms below score one candidate at a time, each drawn
// after the previous one's score. The batch forms must score the same
// candidates in the same order and return the same result and error.

func refRandomSearch(score func([]core.Feature) (float64, error), rng *xrand.RNG, n, setSize int, progress func(i int, mpki float64)) ([]ScoredSet, error) {
	if n <= 0 || setSize <= 0 {
		return nil, fmt.Errorf("search: non-positive search size")
	}
	out := make([]ScoredSet, n)
	for i := 0; i < n; i++ {
		set := RandomSet(rng, setSize)
		mpki, err := score(set)
		if err != nil {
			return nil, err
		}
		out[i] = ScoredSet{Features: set, MPKI: mpki}
		if progress != nil {
			progress(i, mpki)
		}
	}
	sortScored(out)
	return out, nil
}

func refSearchTau0(score func(core.Params) (float64, error), params core.Params, lo, hi, step int, progress func(tau0 int, mpki float64)) (int, float64, error) {
	bestTau := params.Tau0
	bestMPKI, err := score(params)
	if err != nil {
		return 0, 0, err
	}
	for t := lo; t <= hi; t += step {
		p := params
		p.Tau0 = t
		m, err := score(p)
		if err != nil {
			return 0, 0, err
		}
		if progress != nil {
			progress(t, m)
		}
		if m < bestMPKI {
			bestTau, bestMPKI = t, m
		}
	}
	return bestTau, bestMPKI, nil
}

func refSearchThresholds(score func(core.Params) (float64, error), rng *xrand.RNG, start core.Params, n int, progress func(i int, best float64)) (core.Params, float64, error) {
	best := start
	bestMPKI, err := score(start)
	if err != nil {
		return best, 0, err
	}
	for i := 0; i < n; i++ {
		cand := RandomFeasible(rng, best)
		m, err := score(cand)
		if err != nil {
			return best, 0, err
		}
		if m < bestMPKI {
			best, bestMPKI = cand, m
		}
		if progress != nil {
			progress(i, bestMPKI)
		}
	}
	return best, bestMPKI, nil
}

var errScore = errors.New("score failed")

// recorder scores candidates from a few distinct values, so ties are
// common, records each candidate it is asked about and each progress
// call, and fails at call failAt (never when failAt is past the last).
type recorder[C any] struct {
	key      func(C) int
	seed     uint64
	failAt   int
	seen     []C
	progress [][2]float64
}

func (r *recorder[C]) score(c C) (float64, error) {
	r.seen = append(r.seen, c)
	if len(r.seen)-1 == r.failAt {
		return 0, errScore
	}
	return float64((uint64(r.key(c)) + r.seed) % 3), nil
}

func (r *recorder[C]) report(i int, m float64) {
	r.progress = append(r.progress, [2]float64{float64(i), m})
}

// same fails unless the reference and the batch run recorded the same
// candidates and progress, and returned the same result and error.
func same[C any](t *testing.T, label string, ref, got *recorder[C], refOut, gotOut []any) {
	t.Helper()
	if !reflect.DeepEqual(ref.seen, got.seen) {
		t.Errorf("%s: scored %d candidates %v, reference %d %v", label, len(got.seen), got.seen, len(ref.seen), ref.seen)
	}
	if !reflect.DeepEqual(ref.progress, got.progress) {
		t.Errorf("%s: progress %v, reference %v", label, got.progress, ref.progress)
	}
	if !reflect.DeepEqual(refOut, gotOut) {
		t.Errorf("%s: returned %v, reference %v", label, gotOut, refOut)
	}
}

func setKey(set []core.Feature) int {
	k := 0
	for _, f := range set {
		k += f.A + f.B + int(f.Kind)
	}
	return k
}

func paramsKey(p core.Params) int { return p.Tau0 + 3*p.Tau1 + 5*p.Tau4 + 7*p.Pi[1] + 11*p.Pi[2] }

// TestBatchSearchesMatchReference: at random seeds, with scores that tie
// and scores that fail partway (or never), each batch search scores the
// candidates its reference scores, in the same order, reports the same
// progress and returns the same result and error.
func TestBatchSearchesMatchReference(t *testing.T) {
	draw := xrand.New(2017)
	starts := []struct {
		name   string
		params core.Params
	}{{"st", core.SingleThreadParams()}, {"mp", core.MultiCoreParams()}}
	for trial := 0; trial < 200; trial++ {
		seed := draw.Uint64()
		n := 1 + draw.Intn(12)
		failAt := draw.Intn(2 * (n + 2))

		ref := &recorder[[]core.Feature]{key: setKey, seed: seed, failAt: failAt}
		got := &recorder[[]core.Feature]{key: setKey, seed: seed, failAt: failAt}
		refSets, refErr := refRandomSearch(ref.score, xrand.New(seed), n, 4, ref.report)
		gotSets, gotErr := RandomSearch(batch(got.score), xrand.New(seed), n, 4, got.report)
		same(t, fmt.Sprintf("RandomSearch seed %d n %d fail %d", seed, n, failAt), ref, got,
			[]any{refSets, refErr}, []any{gotSets, gotErr})

		for _, st := range starts {
			name, start := st.name, st.params
			step := []int{16, 32, 64, 128}[draw.Intn(4)]
			pref := &recorder[core.Params]{key: paramsKey, seed: seed, failAt: failAt}
			pgot := &recorder[core.Params]{key: paramsKey, seed: seed, failAt: failAt}
			rt, rm, rerr := refSearchTau0(pref.score, start, 0, core.ConfMax, step, pref.report)
			gt, gm, gerr := SearchTau0(batch(pgot.score), start, 0, core.ConfMax, step, pgot.report)
			same(t, fmt.Sprintf("SearchTau0 %s seed %d step %d fail %d", name, seed, step, failAt), pref, pgot,
				[]any{rt, rm, rerr}, []any{gt, gm, gerr})

			combos := draw.Intn(50)
			pref = &recorder[core.Params]{key: paramsKey, seed: seed, failAt: failAt}
			pgot = &recorder[core.Params]{key: paramsKey, seed: seed, failAt: failAt}
			rp, rm, rerr := refSearchThresholds(pref.score, xrand.New(seed), start, combos, pref.report)
			gp, gm, gerr := SearchThresholds(batch(pgot.score), xrand.New(seed), start, combos, pgot.report)
			same(t, fmt.Sprintf("SearchThresholds %s seed %d combos %d fail %d", name, seed, combos, failAt), pref, pgot,
				[]any{rp, rm, rerr}, []any{gp, gm, gerr})
		}
	}
}

// TestBatchSearchesScoreOnce: each batch search calls its score once,
// with every candidate.
func TestBatchSearchesScoreOnce(t *testing.T) {
	var calls, cands int
	count := func(n int) { calls, cands = calls+1, cands+n }
	flat := func(n int) []float64 { return make([]float64, n) }
	RandomSearch(func(sets [][]core.Feature) ([]float64, error) { count(len(sets)); return flat(len(sets)), nil }, xrand.New(1), 40, 16, nil)
	params := func(ps []core.Params) ([]float64, error) { count(len(ps)); return flat(len(ps)), nil }
	SearchTau0(params, core.SingleThreadParams(), 0, core.ConfMax, 16, nil)
	SearchThresholds(params, xrand.New(1), core.SingleThreadParams(), 200, nil)
	// 40 sets; τ0 itself and the sweep 0, 16, ..., 256; start and 200
	// combinations.
	if want := 40 + 1 + (core.ConfMax/16 + 1) + 1 + 200; calls != 3 || cands != want {
		t.Fatalf("%d batches of %d candidates, want 3 of %d", calls, cands, want)
	}
}
