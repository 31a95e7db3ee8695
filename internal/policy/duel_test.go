package policy

import (
	"reflect"
	"testing"
)

// TestDuelLeadersProperties pins the layout guarantees every dueler
// depends on, for both arrangements across the supported geometries
// (internal/verify cross-checks the exact sets against its reference over
// the same list): each candidate gets exactly its documented number of
// leader sets, so none has a vote advantage; kinds are in range; the
// grouped layout leaves at least half the sets following, so the duel
// never governs more of the cache than it samples; geometries too small
// to duel get no leaders at all; and before any vote every set picks its
// own candidate or, following, candidate 0.
func TestDuelLeadersProperties(t *testing.T) {
	check := func(sets, n int, layout Layout, want int) {
		t.Helper()
		d := NewDuel(sets, n, layout, Rule{Kind: Decay, Period: 1})
		counts := make([]int, n)
		followers := 0
		for s := 0; s < sets; s++ {
			k := d.Leader(s)
			switch {
			case k == -1:
				followers++
			case k >= 0 && k < n:
				counts[k]++
			default:
				t.Fatalf("sets=%d n=%d %+v: set %d leads candidate %d", sets, n, layout, s, k)
			}
			if got := d.Pick(s); got != max(k, 0) {
				t.Fatalf("sets=%d n=%d %+v: set %d picks %d before any vote", sets, n, layout, s, got)
			}
		}
		for c, got := range counts {
			if got != want {
				t.Fatalf("sets=%d n=%d %+v: candidate %d has %d leaders, want %d (counts %v)",
					sets, n, layout, c, got, want, counts)
			}
		}
		if layout.Grouped && followers < sets/2 {
			t.Fatalf("sets=%d n=%d %+v: only %d/%d followers", sets, n, layout, followers, sets)
		}
	}
	for _, sets := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 100, 128, 256, 384, 1000, 1024, 2048, 4096} {
		for _, leaders := range []int{1, 4, 32, 64} {
			// Complement-select pairs: min(Leaders, sets/2) per side.
			check(sets, 2, Layout{Leaders: leaders}, min(leaders, sets/2))
			// Grouped: min(Leaders, sets/(2n)) per candidate, so none
			// below 2n sets.
			for _, n := range []int{1, 2, 3, 4, 8} {
				check(sets, n, Layout{Grouped: true, Leaders: leaders}, min(leaders, sets/(2*n)))
			}
		}
	}
}

// TestLeaderKindsBothKindsEqual pins the two-way duel DRRIP and DIP
// share: both candidates lead min(32, sets/2) sets each and every other
// set follows, at every geometry down to the 2-set minimum.
func TestLeaderKindsBothKindsEqual(t *testing.T) {
	for _, sets := range []int{2, 4, 8, 16, 64, 100, 128, 1024, 2048} {
		d := newTwoWayDuel(sets)
		counts := map[int]int{}
		for s := 0; s < sets; s++ {
			counts[d.Leader(s)]++
		}
		want := min(32, sets/2)
		if counts[0] != want || counts[1] != want {
			t.Fatalf("sets=%d: leader counts %v, want %d each", sets, counts, want)
		}
		if counts[0]+counts[1]+counts[-1] != sets {
			t.Fatalf("sets=%d: kinds don't partition the sets: %v", sets, counts)
		}
	}
}

// TestDuelRules steps each vote rule through a script of leader and
// follower misses, checking after every step the complete vote state, the
// winner changes Miss reported, and that Pick follows the state: leaders
// run their own candidate, followers the winner. The scripts cover PSEL
// ignoring followers and saturating at both bounds; Decay halving after
// Period misses counted across leaders and followers, into a tie that goes
// to the lower index; and Window ignoring followers, never charging its
// hysteresis past Max, and yielding only after a challenger drains it.
func TestDuelRules(t *testing.T) {
	type step struct {
		miss  int // candidate whose leader set misses; -1 for a follower
		times int
		want  Votes
	}
	for _, tc := range []struct {
		name   string
		n      int
		layout Layout
		rule   Rule
		steps  []step
	}{
		{"psel", 2, Layout{Leaders: 2}, Rule{Kind: PSEL, Max: 3}, []step{
			{-1, 10, Votes{}},
			{0, 5, Votes{Winner: 1, Psel: -3, Switches: 1}},
			{1, 2, Votes{Winner: 1, Psel: -1, Switches: 1}},
			{1, 1, Votes{Winner: 0, Psel: 0, Switches: 2}},
			{1, 10, Votes{Winner: 0, Psel: 3, Switches: 2}},
		}},
		{"decay", 2, Layout{Grouped: true, Leaders: 1}, Rule{Kind: Decay, Period: 6}, []step{
			{0, 3, Votes{Winner: 1, Events: 3, Switches: 1, Misses: []uint32{3, 0}}},
			{1, 2, Votes{Winner: 1, Events: 5, Switches: 1, Misses: []uint32{3, 2}}},
			{-1, 1, Votes{Winner: 0, Switches: 2, Misses: []uint32{1, 1}}},
		}},
		{"window", 2, Layout{Grouped: true, Leaders: 1}, Rule{Kind: Window, Max: 2, Period: 2}, []step{
			{-1, 5, Votes{Psel: 2, Misses: []uint32{0, 0}}},
			{1, 1, Votes{Psel: 2, Events: 1, Misses: []uint32{0, 1}}},
			{1, 9, Votes{Psel: 2, Misses: []uint32{0, 0}}},
			{0, 2, Votes{Psel: 1, Misses: []uint32{0, 0}}},
			{0, 2, Votes{Misses: []uint32{0, 0}}},
			{0, 2, Votes{Winner: 1, Switches: 1, Misses: []uint32{0, 0}}},
			{0, 2, Votes{Winner: 1, Psel: 1, Switches: 1, Misses: []uint32{0, 0}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sets = 16
			d := NewDuel(sets, tc.n, tc.layout, tc.rule)
			lead, follower := make([]int, tc.n), -1
			for s := sets - 1; s >= 0; s-- {
				if k := d.Leader(s); k >= 0 {
					lead[k] = s
				} else {
					follower = s
				}
			}
			var switches uint64
			for i, st := range tc.steps {
				set := follower
				if st.miss >= 0 {
					set = lead[st.miss]
				}
				var changes uint64
				for j := 0; j < st.times; j++ {
					if d.Miss(set) {
						changes++
					}
				}
				if got := d.Votes(); !reflect.DeepEqual(got, st.want) {
					t.Fatalf("step %d: votes %+v, want %+v", i, got, st.want)
				}
				if changes != st.want.Switches-switches {
					t.Fatalf("step %d: Miss reported %d winner changes, want %d", i, changes, st.want.Switches-switches)
				}
				switches = st.want.Switches
				for s := 0; s < sets; s++ {
					want := d.Leader(s)
					if want < 0 {
						want = st.want.Winner
					}
					if got := d.Pick(s); got != want {
						t.Fatalf("step %d: set %d picks %d, want %d", i, s, got, want)
					}
				}
			}
		})
	}
}

// TestNewDuelRejectsTwoWayMismatch: the complement-select layout and the
// PSEL rule define two-candidate duels only.
func TestNewDuelRejectsTwoWayMismatch(t *testing.T) {
	for _, c := range []struct {
		n      int
		layout Layout
		rule   Rule
	}{
		{3, Layout{Leaders: 32}, Rule{Kind: Decay, Period: 8}},
		{3, Layout{Grouped: true, Leaders: 4}, Rule{Kind: PSEL, Max: 4}},
		{0, Layout{Grouped: true, Leaders: 4}, Rule{Kind: Window, Max: 4, Period: 8}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDuel(64, %d, %+v, %+v) did not panic", c.n, c.layout, c.rule)
				}
			}()
			NewDuel(64, c.n, c.layout, c.rule)
		}()
	}
}
