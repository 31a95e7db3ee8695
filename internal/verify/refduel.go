package verify

import (
	"fmt"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// refDuel is the reference restatement of policy.Duel: its own leader
// layout, counters and winner, advanced in lockstep with the production
// duel by the oracles' hooks. Layout and rule parameters are configuration
// — restated per policy below, or the resolved core.DuelConfig for
// adaptive MPPPB — and everything a duel computes from them is recomputed
// here.
type refDuel struct {
	rule     policy.Rule
	leader   []int    // per set: the candidate it leads, -1 for followers
	misses   []uint64 // Decay and Window: per candidate
	winner   int
	psel     int
	events   uint64
	switches uint64
}

func newRefDuel(sets, n int, layout policy.Layout, rule policy.Rule) *refDuel {
	r := &refDuel{rule: rule, leader: make([]int, sets)}
	for i := range r.leader {
		r.leader[i] = -1
	}
	if layout.Grouped {
		// Up to Leaders evenly spread groups, each leading candidates
		// 0..n-1 from consecutive sets; none without room for one group
		// per 2n sets.
		groups := min(layout.Leaders, sets/(2*n))
		for j := 0; j < groups; j++ {
			for c := 0; c < n; c++ {
				r.leader[j*sets/groups+c] = c
			}
		}
	} else {
		// Complement-select: candidate-0 leaders spread evenly, each with a
		// candidate-1 partner half a stride later.
		pairs := min(layout.Leaders, sets/2)
		for i := 0; i < pairs; i++ {
			base := i * sets / pairs
			r.leader[base] = 0
			r.leader[base+sets/pairs/2] = 1
		}
	}
	if rule.Kind != policy.PSEL {
		r.misses = make([]uint64, n)
	}
	if rule.Kind == policy.Window {
		r.psel = rule.Max // the incumbent opens with full hysteresis
	}
	return r
}

// twoWayRefDuel restates the duel DIP, DRRIP and the hybrid run: 32
// complement-select leader sets per side voting through a ±512 PSEL. The
// constants are restated, not read from production, so that -check also
// catches a drifted one.
func twoWayRefDuel(sets int) *refDuel {
	return newRefDuel(sets, 2, policy.Layout{Leaders: 32}, policy.Rule{Kind: policy.PSEL, Max: 512})
}

// dynMDPPRefDuel restates dynamic MDPP's duel: four candidates in up to 64
// leader groups, miss counters halved every 8192 fills.
func dynMDPPRefDuel(sets int) *refDuel {
	return newRefDuel(sets, 4, policy.Layout{Grouped: true, Leaders: 64}, policy.Rule{Kind: policy.Decay, Period: 8192})
}

// vote records one miss in a set.
func (r *refDuel) vote(set int) {
	k := r.leader[set]
	switch r.rule.Kind {
	case policy.PSEL:
		// Candidate-0 leader misses count down and candidate-1 ones up,
		// clamped to ±Max; candidate 0 wins at zero and above.
		if k == 0 {
			r.psel = max(r.psel-1, -r.rule.Max)
		} else if k == 1 {
			r.psel = min(r.psel+1, r.rule.Max)
		}
		if r.psel >= 0 {
			r.elect(0)
		} else {
			r.elect(1)
		}
	case policy.Decay:
		// Leader misses count for their candidate, every miss advances the
		// halving period, and the fewest misses win.
		if k >= 0 {
			r.misses[k]++
		}
		r.events++
		if r.events == r.rule.Period {
			for c := range r.misses {
				r.misses[c] /= 2
			}
			r.events = 0
		}
		r.elect(r.fewest())
	case policy.Window:
		// Only leader misses count; each full window's fewest misses
		// challenge the incumbent through the hysteresis counter.
		if k < 0 {
			return
		}
		r.misses[k]++
		r.events++
		if r.events < r.rule.Period {
			return
		}
		best := r.fewest()
		switch {
		case best == r.winner:
			r.psel = min(r.psel+1, r.rule.Max)
		case r.psel > 0:
			r.psel--
		default:
			r.elect(best)
		}
		for c := range r.misses {
			r.misses[c] = 0
		}
		r.events = 0
	}
}

// elect records w as the winner, counting a change.
func (r *refDuel) elect(w int) {
	if w != r.winner {
		r.winner = w
		r.switches++
	}
}

// fewest returns the candidate with the fewest misses, lowest index on ties.
func (r *refDuel) fewest() int {
	best := 0
	for c := 1; c < len(r.misses); c++ {
		if r.misses[c] < r.misses[best] {
			best = c
		}
	}
	return best
}

// pick returns the candidate a set runs: its own if it leads, else the
// winner.
func (r *refDuel) pick(set int) int {
	if r.leader[set] >= 0 {
		return r.leader[set]
	}
	return r.winner
}

// duelView is the read side of a production policy.Duel that the
// reference compares; tests substitute deliberately broken views.
type duelView interface {
	Leader(set int) int
	Pick(set int) int
	Votes() policy.Votes
}

// diff compares a production duel's vote state, and the leader and pick of
// every set in [from, to), against the reference, returning the first
// mismatch or nil.
func (r *refDuel) diff(d duelView, from, to int) error {
	v := d.Votes()
	if v.Winner != r.winner || v.Psel != r.psel || v.Events != r.events || v.Switches != r.switches {
		return fmt.Errorf("duel: production winner=%d psel=%d events=%d switches=%d, reference winner=%d psel=%d events=%d switches=%d",
			v.Winner, v.Psel, v.Events, v.Switches, r.winner, r.psel, r.events, r.switches)
	}
	if len(v.Misses) != len(r.misses) {
		return fmt.Errorf("duel: production counts misses for %d candidates, reference %d", len(v.Misses), len(r.misses))
	}
	for c, m := range r.misses {
		if uint64(v.Misses[c]) != m {
			return fmt.Errorf("duel: candidate %d misses: production %d, reference %d", c, v.Misses[c], m)
		}
	}
	for set := from; set < to; set++ {
		if got, want := d.Leader(set), r.leader[set]; got != want {
			return fmt.Errorf("duel: set %d leads candidate %d in production, %d in reference", set, got, want)
		}
		if got, want := d.Pick(set), r.pick(set); got != want {
			return fmt.Errorf("duel: set %d picks candidate %d in production, %d in reference", set, got, want)
		}
	}
	return nil
}

// duelOracle shadows the duel of DIP, DRRIP, dynamic MDPP or the
// MPPPB+Hawkeye hybrid with the reference, voting where the policy votes:
// DIP, DRRIP and dynamic MDPP on every fill, the hybrid on demand and
// prefetch victims. It compares the vote state and the hooked set's leader
// and pick after every hook, and every set's on each sweep. What a policy
// does with its pick is left to the cache content model.
type duelOracle struct {
	baseOracle
	k        *Checker
	name     string
	d        duelView
	ref      *refDuel
	onVictim bool
}

func newDuelOracle(k *Checker, name string, d duelView, ref *refDuel, onVictim bool) *duelOracle {
	return &duelOracle{k: k, name: name, d: d, ref: ref, onVictim: onVictim}
}

func (o *duelOracle) check(from, to int) {
	if err := o.ref.diff(o.d, from, to); err != nil {
		o.k.failf("", "%s: %v", o.name, err)
	}
}

func (o *duelOracle) postHit(set, _ int, _ cache.Access) { o.check(set, set+1) }

func (o *duelOracle) preVictim(set int, a cache.Access) {
	if o.onVictim && (a.IsDemand() || a.Type == trace.Prefetch) {
		o.ref.vote(set)
	}
}

func (o *duelOracle) postVictim(set int, _ cache.Access, _ int, _ bool) { o.check(set, set+1) }

func (o *duelOracle) preFill(set, _ int, _ cache.Access) {
	if !o.onVictim {
		o.ref.vote(set)
	}
}

func (o *duelOracle) postFill(set, _ int, _ cache.Access) { o.check(set, set+1) }

func (o *duelOracle) sweep() { o.check(0, len(o.ref.leader)) }
