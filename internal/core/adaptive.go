package core

import (
	"fmt"
	"strconv"
	"strings"

	"mpppb/internal/obs"
	"mpppb/internal/policy"
)

// Adaptive MPPPB: instead of fixing τ0..τ4 and π1..π3 offline, several
// threshold configurations duel in disjoint sampled leader sets (policy.Duel,
// the set-dueling machinery of DIP and DRRIP in its N-candidate layout),
// and follower sets migrate to the winning configuration through a
// saturating PSEL-style hysteresis counter. The duel re-runs on a sliding
// window of leader misses so the winner can change mid-run as program
// phases shift — the gap Faldu's "Addressing Variability in Reuse
// Prediction for Last-Level Caches" (arXiv 2006.08487) identifies in
// fixed-threshold predictors.
//
// Only the decision thresholds switch; the predictor weights, the sampler,
// and the feature set are shared by every candidate, so the duel costs one
// int16 per set, one miss counter per candidate, and nothing on the
// prediction path.

// ThresholdSet is one complete decision-threshold configuration for the
// advisor: the miss-side thresholds τ0..τ3, the hit-side no-promote
// threshold τ4, the placement positions π1..π3, and the promotion
// position. It is the unit the adaptive mode duels: candidates differ only
// in these values and share all predictor state.
type ThresholdSet struct {
	Tau0, Tau1, Tau2, Tau3, Tau4 int
	Pi                           [3]int
	PromotePos                   int
}

// placement maps a confidence value to a recency position per Section 3.6.
// slot indexes the Placements statistic (0 = MRU).
func (t *ThresholdSet) placement(conf int) (pos, slot int) {
	switch {
	case conf > t.Tau1:
		return t.Pi[0], 1
	case conf > t.Tau2:
		return t.Pi[1], 2
	case conf > t.Tau3:
		return t.Pi[2], 3
	default:
		return 0, 0 // most-recently-used position
	}
}

// validate checks the documented threshold invariants: τ1 > τ2 > τ3
// (policy.go: "descending"), and every position within the default
// policy's position space.
func (t ThresholdSet) validate(maxPos int) error {
	if !(t.Tau1 > t.Tau2 && t.Tau2 > t.Tau3) {
		return fmt.Errorf("thresholds not descending: want Tau1 > Tau2 > Tau3, have %d, %d, %d",
			t.Tau1, t.Tau2, t.Tau3)
	}
	for i, pi := range t.Pi {
		if pi < 0 || pi > maxPos {
			return fmt.Errorf("placement position Pi[%d]=%d outside [0,%d]", i, pi, maxPos)
		}
	}
	if t.PromotePos < 0 || t.PromotePos > maxPos {
		return fmt.Errorf("promotion position %d outside [0,%d]", t.PromotePos, maxPos)
	}
	return nil
}

// String renders the set in the compact 9-integer form ParseThresholdSet
// accepts: tau0,tau1,tau2,tau3,tau4,pi1,pi2,pi3,promote. mpppb-tune prints
// this form so search results can feed duel candidates directly.
func (t ThresholdSet) String() string {
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d,%d",
		t.Tau0, t.Tau1, t.Tau2, t.Tau3, t.Tau4, t.Pi[0], t.Pi[1], t.Pi[2], t.PromotePos)
}

// ParseThresholdSet parses the compact form produced by
// ThresholdSet.String: nine comma-separated integers
// tau0,tau1,tau2,tau3,tau4,pi1,pi2,pi3,promote.
func ParseThresholdSet(s string) (ThresholdSet, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 9 {
		return ThresholdSet{}, fmt.Errorf("core: threshold set %q: want 9 comma-separated integers, have %d", s, len(parts))
	}
	vals := make([]int, 9)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return ThresholdSet{}, fmt.Errorf("core: threshold set %q: field %d: %v", s, i, err)
		}
		vals[i] = v
	}
	return ThresholdSet{
		Tau0: vals[0], Tau1: vals[1], Tau2: vals[2], Tau3: vals[3], Tau4: vals[4],
		Pi: [3]int{vals[5], vals[6], vals[7]}, PromotePos: vals[8],
	}, nil
}

// ParseDuelCandidates parses a semicolon-separated list of compact
// threshold sets (the form mpppb-tune prints), for handing arbitrary
// searched configurations to the duel. A duel needs at least two.
func ParseDuelCandidates(s string) ([]ThresholdSet, error) {
	var out []ThresholdSet
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		ts, err := ParseThresholdSet(part)
		if err != nil {
			return nil, err
		}
		out = append(out, ts)
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("core: duel spec %q holds %d threshold set(s); a duel needs at least 2", s, len(out))
	}
	return out, nil
}

// Thresholds extracts the params' decision thresholds as one ThresholdSet.
func (p Params) Thresholds() ThresholdSet {
	return ThresholdSet{
		Tau0: p.Tau0, Tau1: p.Tau1, Tau2: p.Tau2, Tau3: p.Tau3, Tau4: p.Tau4,
		Pi: p.Pi, PromotePos: p.PromotePos,
	}
}

// DuelConfig configures adaptive threshold set-dueling on an Advisor (and
// therefore on MPPPB and the serving layer, which both build on it). The
// zero value selects defaults: DefaultDuelCandidates for the params'
// default policy, 32 leader groups, a 512-leader-miss window, and a
// 4-level PSEL hysteresis.
type DuelConfig struct {
	// Candidates are the threshold configurations under duel. Candidate 0
	// is the initial winner. Empty selects DefaultDuelCandidates.
	Candidates []ThresholdSet `json:",omitempty"`
	// Groups caps the number of leader groups (each group dedicates one
	// set per candidate). 0 selects 32.
	Groups int `json:",omitempty"`
	// Window is the number of leader-set misses per duel window; at each
	// window boundary the candidate with the fewest misses challenges the
	// incumbent. 0 selects 512.
	Window uint64 `json:",omitempty"`
	// PselMax is the saturation bound of the hysteresis counter charged by
	// windows the incumbent wins; a challenger must win PselMax+1
	// consecutive windows against a saturated incumbent to take over.
	// 0 selects 4.
	PselMax int `json:",omitempty"`
}

// Default duel tuning. 4 groups × 3 default candidates = 12 leader sets
// (0.6% of a 2048-set LLC): small enough that a candidate losing on this
// workload costs followers almost nothing — across the full suite the
// duel's worst per-segment regression stays within noise — while 512
// leader misses still accumulate quickly wherever misses actually
// matter, so follower migration (where the wins come from) is intact.
const (
	defaultDuelGroups  = 4
	defaultDuelWindow  = 512
	defaultDuelPselMax = 4
)

// withDefaults resolves the zero-value fields against the params the duel
// will run under.
func (d DuelConfig) withDefaults(p Params) DuelConfig {
	if len(d.Candidates) == 0 {
		d.Candidates = DefaultDuelCandidates(p)
	}
	if d.Groups == 0 {
		d.Groups = defaultDuelGroups
	}
	if d.Window == 0 {
		d.Window = defaultDuelWindow
	}
	if d.PselMax == 0 {
		d.PselMax = defaultDuelPselMax
	}
	return d
}

// validate checks a resolved duel configuration.
func (d DuelConfig) validate(maxPos int) error {
	if len(d.Candidates) < 2 {
		return fmt.Errorf("duel needs at least 2 candidates, have %d", len(d.Candidates))
	}
	for i, c := range d.Candidates {
		if err := c.validate(maxPos); err != nil {
			return fmt.Errorf("duel candidate %d: %v", i, err)
		}
	}
	if d.Groups < 0 {
		return fmt.Errorf("duel groups %d negative", d.Groups)
	}
	if d.PselMax < 1 {
		return fmt.Errorf("duel PselMax %d < 1", d.PselMax)
	}
	return nil
}

// shiftThresholds moves every decision threshold by delta. A uniform
// shift preserves the descending τ1 > τ2 > τ3 ordering by construction
// and changes only where the confidence cut-points sit: positive delta
// demands more confidence for every aggressive action (bypass, distant
// placement, promotion suppression), negative delta less.
func shiftThresholds(t ThresholdSet, delta int) ThresholdSet {
	t.Tau0 += delta
	t.Tau1 += delta
	t.Tau2 += delta
	t.Tau3 += delta
	t.Tau4 += delta
	return t
}

// DefaultDuelCandidates builds the default duel lineup for a
// parameterization: its own thresholds (candidate 0, the initial winner)
// flanked by a conservative and an aggressive variant shifted ±¼ of the
// τ1..τ3 spread. Candidates live in the SAME confidence space as the
// base — confidences are weight sums over the params' feature set, so
// thresholds tuned for a different feature set do not transfer (the
// single-thread and multi-core spaces differ by an order of magnitude)
// and a cross-space candidate would burn its leader sets forever. The
// flanking shifts instead track the per-workload threshold sensitivity
// Faldu identifies: workloads whose confidence distribution sits above
// or below the tuning suite's migrate to the matching flank.
func DefaultDuelCandidates(p Params) []ThresholdSet {
	base := p.Thresholds()
	delta := (base.Tau1 - base.Tau3) / 4
	return []ThresholdSet{
		base,
		shiftThresholds(base, delta),  // conservative: aggressive actions need more confidence
		shiftThresholds(base, -delta), // aggressive: cut-points reach lower-confidence blocks
	}
}

// ResolvedDuel returns the duel configuration with zero-value fields
// resolved to their defaults, and whether adaptive mode is on at all. The
// verification layer uses it to build its independent reference duel from
// the same candidate lineup.
func (p Params) ResolvedDuel() (DuelConfig, bool) {
	if p.Duel == nil {
		return DuelConfig{}, false
	}
	return p.Duel.withDefaults(p), true
}

// AdaptiveSingleThreadParams is SingleThreadParams with default threshold
// dueling enabled (the "mpppb-adaptive" policy).
func AdaptiveSingleThreadParams() Params {
	p := SingleThreadParams()
	p.Duel = &DuelConfig{}
	return p
}

// AdaptiveMultiCoreParams is MultiCoreParams with default threshold
// dueling enabled (the "mpppb-adaptive-srrip" policy).
func AdaptiveMultiCoreParams() Params {
	p := MultiCoreParams()
	p.Duel = &DuelConfig{}
	return p
}

// startDuel turns on adaptive threshold dueling: the candidates duel in
// the grouped leader layout under the windowed rule, and the winner is
// published to the mpppb_adaptive_* metrics.
func (v *Advisor) startDuel(d DuelConfig) {
	v.cands = d.Candidates
	v.duel = policy.NewDuel(v.sets, len(d.Candidates),
		policy.Layout{Grouped: true, Leaders: d.Groups},
		policy.Rule{Kind: policy.Window, Max: d.PselMax, Period: d.Window})
	v.winnerGauge = obs.Default().Gauge("mpppb_adaptive_winner", "Threshold-duel candidate index follower sets currently use.")
	v.switchCounter = obs.Default().Counter("mpppb_adaptive_switches", "Threshold-duel winner changes.")
	v.winnerGauge.Set(0)
}

// thresholdsFor returns the threshold configuration active for a set: the
// duel's pick in adaptive mode, the static configuration otherwise.
func (v *Advisor) thresholdsFor(set int) *ThresholdSet {
	if v.duel != nil {
		return &v.cands[v.duel.Pick(set)]
	}
	return &v.static
}

// duelVote records one non-writeback miss with the duel, if adaptive mode
// is on, and publishes a winner change. predictMiss calls it once per
// miss, before any threshold read.
func (v *Advisor) duelVote(set int) {
	if v.duel != nil && v.duel.Miss(set) {
		v.switchCounter.Inc()
		v.winnerGauge.Set(int64(v.duel.Winner()))
	}
}

// thresholdSets returns every threshold configuration the advisor can run:
// the duel candidates in adaptive mode, the static set otherwise. The
// verification layer checks structural invariants across all of them.
func (v *Advisor) thresholdSets() []ThresholdSet {
	if v.duel != nil {
		return v.cands
	}
	return []ThresholdSet{v.static}
}

// Duel returns the adaptive threshold duel over the resolved
// DuelConfig.Candidates, or nil when the advisor is static. Exposed for
// the verification layer's lockstep comparison and for tests.
func (v *Advisor) Duel() *policy.Duel { return v.duel }
