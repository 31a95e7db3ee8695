package verify

import (
	"strings"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// TestRefDuelLayoutMatchesProduction cross-checks policy.NewDuel's leader
// layout against the reference, set by set, for both arrangements over the
// geometry list of policy's TestDuelLeadersProperties.
func TestRefDuelLayoutMatchesProduction(t *testing.T) {
	rule := policy.Rule{Kind: policy.Decay, Period: 8}
	check := func(sets, n int, layout policy.Layout) {
		t.Helper()
		if err := newRefDuel(sets, n, layout, rule).diff(policy.NewDuel(sets, n, layout, rule), 0, sets); err != nil {
			t.Fatalf("sets=%d n=%d %+v: %v", sets, n, layout, err)
		}
	}
	for _, sets := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 100, 128, 256, 384, 1000, 1024, 2048, 4096} {
		for _, leaders := range []int{1, 4, 32, 64} {
			check(sets, 2, policy.Layout{Leaders: leaders})
			for _, n := range []int{1, 2, 3, 4, 8} {
				check(sets, n, policy.Layout{Grouped: true, Leaders: leaders})
			}
		}
	}
}

// TestRefDuelLockstep drives a production duel and the reference with the
// same misses under each rule, comparing the complete state after every
// miss. Each phase spares one candidate's leader sets so the winner keeps
// changing, and the small bounds make PSEL saturate, Decay halve and
// Window hand over many times.
func TestRefDuelLockstep(t *testing.T) {
	const sets = 64
	for _, tc := range []struct {
		n      int
		layout policy.Layout
		rule   policy.Rule
	}{
		{2, policy.Layout{Leaders: 8}, policy.Rule{Kind: policy.PSEL, Max: 6}},
		{4, policy.Layout{Grouped: true, Leaders: 4}, policy.Rule{Kind: policy.Decay, Period: 16}},
		{3, policy.Layout{Grouped: true, Leaders: 4}, policy.Rule{Kind: policy.Window, Max: 2, Period: 4}},
	} {
		d := policy.NewDuel(sets, tc.n, tc.layout, tc.rule)
		ref := newRefDuel(sets, tc.n, tc.layout, tc.rule)
		rng := xrand.New(uint64(tc.rule.Kind) + 1)
		for i := 0; i < 20_000; i++ {
			set := rng.Intn(sets)
			if d.Leader(set) == i/2000%tc.n {
				continue
			}
			d.Miss(set)
			ref.vote(set)
			if err := ref.diff(d, set, set+1); err != nil {
				t.Fatalf("rule %d, miss %d in set %d: %v", tc.rule.Kind, i, set, err)
			}
		}
		if err := ref.diff(d, 0, sets); err != nil {
			t.Fatalf("rule %d: %v", tc.rule.Kind, err)
		}
		if v := d.Votes(); v.Switches < 5 {
			t.Fatalf("rule %d: only %d winner changes", tc.rule.Kind, v.Switches)
		}
	}
}

// TestDuelersMatchSpec drives each fixed-configuration dueler's duel past
// both PSEL bounds (or, for dynamic MDPP, across halving periods) in
// lockstep with the reference built from the restated spec, so a drifted
// leader count, PSEL bound or decay period fails without a -check run.
func TestDuelersMatchSpec(t *testing.T) {
	const sets = 2048
	for _, tc := range []struct {
		name  string
		duel  *policy.Duel
		ref   *refDuel
		votes int
	}{
		{"dip", policy.NewDIP(sets, 16, 1).Duel(), twoWayRefDuel(sets), 1100},
		{"drrip", policy.NewDRRIP(sets, 16, 1).Duel(), twoWayRefDuel(sets), 1100},
		{"hybrid", core.NewHybrid(sets, 16, core.SingleThreadParams()).Duel(), twoWayRefDuel(sets), 1100},
		{"dyn-mdpp", policy.NewDynMDPP(sets, 16).Duel(), dynMDPPRefDuel(sets), 9000},
	} {
		if err := tc.ref.diff(tc.duel, 0, sets); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lead := [2]int{-1, -1}
		for s := sets - 1; s >= 0; s-- {
			if k := tc.duel.Leader(s); k == 0 || k == 1 {
				lead[k] = s
			}
		}
		// Candidate 0's leader misses first, then twice as many of
		// candidate 1's.
		for i := 0; i < 3*tc.votes; i++ {
			set := lead[0]
			if i >= tc.votes {
				set = lead[1]
			}
			tc.duel.Miss(set)
			tc.ref.vote(set)
			if err := tc.ref.diff(tc.duel, set, set+1); err != nil {
				t.Fatalf("%s: miss %d: %v", tc.name, i, err)
			}
		}
	}
}

// offByOneDuel reads a production duel's leader layout one set off, the
// classic leader-set lookup bug.
type offByOneDuel struct {
	*policy.Duel
	sets int
}

func (d offByOneDuel) Leader(set int) int { return d.Duel.Leader((set + 1) % d.sets) }
func (d offByOneDuel) Pick(set int) int   { return d.Duel.Pick((set + 1) % d.sets) }

// TestRefDuelCatchesBrokenDuels pins the reference duel's teeth: a -check
// run over a leader layout read one set off fails at its first fill, and a
// PSEL that runs past ±512 diverges at exactly the 513th one-sided leader
// miss.
func TestRefDuelCatchesBrokenDuels(t *testing.T) {
	const sets, ways = 128, 4
	p := policy.NewDRRIP(sets, ways, 1)
	c := cache.New("llc", sets, ways, p)
	k := &Checker{c: c, sweepEvery: DefaultSweepEvery}
	var got []error
	k.Fail = func(err error) { got = append(got, err) }
	k.shadow = &shadowPolicy{k: k, inner: p, o: newDuelOracle(k, p.Name(), offByOneDuel{p.Duel(), sets}, twoWayRefDuel(sets), false)}
	k.model = newCacheModel(k, c)
	c.SetPolicy(k.shadow)
	c.SetObserver(k.model)
	c.Access(cache.Access{PC: 0x1000, Addr: 0, Type: trace.Load}) // fills set 0, an SRRIP leader
	if len(got) == 0 || !strings.Contains(got[0].Error(), "leads") {
		t.Fatalf("off-by-one leader layout not caught: %v", got)
	}

	loose := policy.NewDuel(sets, 2, policy.Layout{Leaders: 32}, policy.Rule{Kind: policy.PSEL, Max: 1 << 20})
	ref := twoWayRefDuel(sets)
	for i := 1; i <= 513; i++ {
		loose.Miss(0) // set 0 leads candidate 0
		ref.vote(0)
		err := ref.diff(loose, 0, 1)
		if i < 513 && err != nil {
			t.Fatalf("diverged before saturation, at miss %d: %v", i, err)
		}
		if i == 513 && (err == nil || !strings.Contains(err.Error(), "psel")) {
			t.Fatalf("PSEL run past -512 not caught: %v", err)
		}
	}
}
