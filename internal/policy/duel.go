package policy

import (
	"fmt"
	"slices"
)

// Duel is set-dueling (Qureshi et al., ISCA 2007), shared by every policy
// that picks its behaviour that way: DIP, DRRIP, dynamic MDPP, the
// MPPPB+Hawkeye hybrid and adaptive MPPPB's threshold duel. A few leader
// sets always run one candidate each and their misses vote; follower sets
// run the current winner. A policy fixes where the leaders sit (Layout)
// and how votes elect the winner (Rule) at construction, calls Miss at its
// own vote point, and asks Pick which candidate a set runs.
type Duel struct {
	leader   []int16 // per set: the candidate it leads, or -1 for a follower
	rule     Rule
	winner   int
	psel     int      // PSEL's selector, Window's hysteresis
	misses   []uint32 // Decay and Window: leader misses per candidate
	events   uint64   // Decay: misses since the last halving; Window: leader misses this window
	switches uint64   // winner changes
}

// Layout places the leader sets. Both arrangements give every candidate
// the same number of leader sets, at most Leaders, and give a geometry too
// small for them no leaders at all: every set then runs candidate 0 rather
// than dueling with missing or unequal candidates.
type Layout struct {
	// Grouped selects the n-way arrangement: g = min(Leaders, sets/(2n))
	// groups, group j starting at set floor(j*sets/g) and leading
	// candidates 0..n-1 from consecutive sets, so at least half the sets
	// follow. Otherwise the duel is two-way complement-select: m =
	// min(Leaders, sets/2) candidate-0 leaders at floor(i*sets/m), each
	// with a candidate-1 partner half a stride later.
	Grouped bool
	// Leaders caps the leader sets per candidate.
	Leaders int
}

// RuleKind selects how leader misses elect the winner. Ties between miss
// counts go to the lowest candidate index.
type RuleKind uint8

const (
	// PSEL is the two-way policy-select counter: a candidate-0 leader miss
	// counts down and a candidate-1 leader miss up, saturating at ±Max (a
	// wrapping counter would hand the followers to the loser exactly when
	// the evidence against it peaks). Candidate 0 wins at zero and above.
	PSEL RuleKind = iota
	// Decay counts leader misses per candidate and halves every counter
	// after each Period misses, leader or follower, so the duel tracks
	// phase changes. The fewest misses win.
	Decay
	// Window counts leader misses per candidate over windows of Period
	// leader misses. At each window's end the candidate with the fewest
	// challenges the incumbent through a hysteresis counter in [0, Max]:
	// an incumbent win charges it, a challenger win drains it, and a
	// challenger that wins on an empty counter takes over. The incumbent
	// opens fully charged, so one lucky window cannot migrate every
	// follower.
	Window
)

// Rule is a vote rule and its parameters.
type Rule struct {
	Kind RuleKind
	// Max bounds PSEL's counter at ±Max and Window's hysteresis at Max.
	Max int
	// Period is Decay's misses per halving and Window's leader misses per
	// window.
	Period uint64
}

// NewDuel builds a duel of n candidates over the given number of sets.
// Candidate 0 is the initial winner. The complement-select layout and the
// PSEL rule take exactly two candidates.
func NewDuel(sets, n int, layout Layout, rule Rule) *Duel {
	if n < 1 || (n != 2 && (!layout.Grouped || rule.Kind == PSEL)) {
		panic(fmt.Sprintf("policy: %d-candidate duel under a two-way layout or rule", n))
	}
	d := &Duel{leader: make([]int16, sets), rule: rule}
	for i := range d.leader {
		d.leader[i] = -1
	}
	if layout.Grouped {
		g := min(layout.Leaders, sets/(2*n))
		for j := 0; j < g; j++ {
			for c := 0; c < n; c++ {
				d.leader[j*sets/g+c] = int16(c)
			}
		}
	} else {
		m := min(layout.Leaders, sets/2)
		for i := 0; i < m; i++ {
			d.leader[i*sets/m] = 0
			d.leader[i*sets/m+sets/m/2] = 1
		}
	}
	if rule.Kind != PSEL {
		d.misses = make([]uint32, n)
	}
	if rule.Kind == Window {
		d.psel = rule.Max
	}
	return d
}

// Miss records a miss in a set and reports whether it changed the winner.
// A follower's miss counts only toward Decay's halving period.
func (d *Duel) Miss(set int) bool {
	k := int(d.leader[set])
	switch d.rule.Kind {
	case PSEL:
		if k == 0 && d.psel > -d.rule.Max {
			d.psel--
		} else if k == 1 && d.psel < d.rule.Max {
			d.psel++
		}
		if d.psel < 0 {
			return d.elect(1)
		}
		return d.elect(0)
	case Decay:
		if k >= 0 {
			d.misses[k]++
		}
		d.events++
		if d.events >= d.rule.Period {
			d.events = 0
			for i := range d.misses {
				d.misses[i] >>= 1
			}
		}
		return d.elect(d.fewest())
	default: // Window
		if k < 0 {
			return false
		}
		d.misses[k]++
		d.events++
		if d.events < d.rule.Period {
			return false
		}
		best := d.fewest()
		clear(d.misses)
		d.events = 0
		switch {
		case best == d.winner:
			d.psel = min(d.psel+1, d.rule.Max)
		case d.psel > 0:
			d.psel--
		default:
			return d.elect(best)
		}
		return false
	}
}

// elect makes w the winner and reports whether that is a change.
func (d *Duel) elect(w int) bool {
	if w == d.winner {
		return false
	}
	d.winner = w
	d.switches++
	return true
}

// fewest returns the candidate with the fewest leader misses.
func (d *Duel) fewest() int {
	best := 0
	for i, m := range d.misses {
		if m < d.misses[best] {
			best = i
		}
	}
	return best
}

// Pick returns the candidate a set runs: its own if it leads one, the
// winner if it follows.
func (d *Duel) Pick(set int) int {
	if k := d.leader[set]; k >= 0 {
		return int(k)
	}
	return d.winner
}

// Leader returns the candidate a set leads, or -1 for a follower.
func (d *Duel) Leader(set int) int { return int(d.leader[set]) }

// Winner returns the candidate follower sets run.
func (d *Duel) Winner() int { return d.winner }

// Votes is a copy of a duel's vote state. Psel is PSEL's selector or
// Window's hysteresis; Misses and Events are Decay's and Window's
// counters.
type Votes struct {
	Winner, Psel     int
	Events, Switches uint64
	Misses           []uint32
}

// Votes returns a copy of the vote state, for the verification layer's
// lockstep comparison and for tests.
func (d *Duel) Votes() Votes {
	return Votes{Winner: d.winner, Psel: d.psel, Events: d.events, Switches: d.switches, Misses: slices.Clone(d.misses)}
}
