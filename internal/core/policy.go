package core

import (
	"fmt"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
)

// DefaultPolicy selects the underlying replacement policy MPPPB layers its
// placement/promotion decisions over (Section 3.7).
type DefaultPolicy uint8

// The two default policies explored in the paper.
const (
	// DefaultMDPP is static minimal-disturbance placement and promotion,
	// used for single-thread workloads (16 recency positions).
	DefaultMDPP DefaultPolicy = iota
	// DefaultSRRIP is static re-reference interval prediction, used for
	// multi-programmed workloads (4 recency positions).
	DefaultSRRIP
)

// Params configures MPPPB. Thresholds follow Section 3.6: on a miss,
// confidence > Tau0 bypasses; otherwise the block is placed at position
// Pi[i] for the smallest i with confidence > Tau[i+1]; below Tau3 it is
// placed at MRU. On a hit, confidence > Tau4 suppresses promotion.
type Params struct {
	Features []Feature
	Default  DefaultPolicy
	// Tau0..Tau3 are the miss-side thresholds (descending); Tau4 is the
	// hit-side no-promote threshold.
	Tau0, Tau1, Tau2, Tau3, Tau4 int
	// Pi are the three non-MRU placement positions (least to more
	// protected): position units are MDPP positions (0..15) or SRRIP
	// RRPVs (0..3) depending on Default.
	Pi [3]int
	// PromotePos is the position promoted to on hits (when promotion is
	// not suppressed).
	PromotePos int
	// SamplerSets is the number of sampled sets (64 per core in the
	// paper).
	SamplerSets int
	// Theta is the perceptron training threshold.
	Theta int
	// Cores is the number of cores sharing the cache.
	Cores int
	// BypassEnabled allows disabling bypass (used by some experiments).
	BypassEnabled bool
	// Duel, when non-nil, enables adaptive threshold set-dueling: the
	// Tau/Pi/PromotePos fields above become duel candidate 0 and follower
	// sets migrate to whichever candidate's leader sets miss least (see
	// adaptive.go). The JSON omitempty keeps static parameterizations'
	// journal keys unchanged.
	Duel *DuelConfig `json:",omitempty"`
}

// maxPlacementPosition is the largest valid placement/promotion position
// in a default policy's position space: 15 MDPP recency positions or 3
// SRRIP RRPVs. Geometry-specific bounds (an MDPP cache with fewer ways)
// are checked at runtime by MPPPB.CheckInvariants.
func maxPlacementPosition(d DefaultPolicy) int {
	if d == DefaultSRRIP {
		return int(policy.RRPVMax)
	}
	return 15
}

// Validate checks the documented parameter invariants: a non-empty feature
// set of at most MaxFeatures, the descending miss-side threshold ordering
// Tau1 > Tau2 > Tau3, placement and promotion positions inside the default
// policy's position space, positive sampler/training/core dimensions, and
// — in adaptive mode — the same invariants on every duel candidate.
// NewAdvisor (and so NewMPPPB and the serving layer) panic on a violation:
// a mis-ordered configuration from a search or a hand-rolled duel
// candidate would otherwise silently make placement tiers unreachable.
func (p Params) Validate() error {
	if len(p.Features) == 0 {
		return fmt.Errorf("params: empty feature set")
	}
	if len(p.Features) > MaxFeatures {
		return fmt.Errorf("params: %d features exceed the limit of %d", len(p.Features), MaxFeatures)
	}
	maxPos := maxPlacementPosition(p.Default)
	if err := p.Thresholds().validate(maxPos); err != nil {
		return fmt.Errorf("params: %v", err)
	}
	if p.SamplerSets < 1 {
		return fmt.Errorf("params: SamplerSets %d < 1", p.SamplerSets)
	}
	if p.Theta < 1 {
		return fmt.Errorf("params: Theta %d < 1", p.Theta)
	}
	if p.Cores < 1 {
		return fmt.Errorf("params: Cores %d < 1", p.Cores)
	}
	if p.Duel != nil {
		if err := p.Duel.withDefaults(p).validate(maxPos); err != nil {
			return fmt.Errorf("params: %v", err)
		}
	}
	return nil
}

// SingleThreadParams returns the single-thread configuration: Table 1
// features over static MDPP with 64 sampled sets. The thresholds and
// positions were tuned with the repository's synthetic suite (the paper
// tunes them per default policy by random search, Section 5.5).
func SingleThreadParams() Params {
	return Params{
		Features:      SingleThreadSetB(),
		Default:       DefaultMDPP,
		Tau0:          0,
		Tau1:          -9,
		Tau2:          -38,
		Tau3:          -117,
		Tau4:          42,
		Pi:            [3]int{15, 6, 0},
		PromotePos:    0,
		SamplerSets:   DefaultSamplerSets,
		Theta:         40,
		Cores:         1,
		BypassEnabled: true,
	}
}

// MultiCoreParams returns the 4-core configuration: SRRIP default with a
// 4x sampler (Section 4.4). The feature set is SuiteSearchedSet — the
// result of running the paper's Section 5.3 feature development against
// this repository's workloads — because the paper's Table 2 was developed
// against SPEC address streams and underperforms on the synthetic suite
// (EXPERIMENTS.md quantifies the difference; Table2Params runs the
// published set).
func MultiCoreParams() Params {
	return Params{
		Features:      SuiteSearchedSet(),
		Default:       DefaultSRRIP,
		Tau0:          48,
		Tau1:          -98,
		Tau2:          -148,
		Tau3:          -180,
		Tau4:          112,
		Pi:            [3]int{3, 2, 1},
		PromotePos:    0,
		SamplerSets:   4 * DefaultSamplerSets,
		Theta:         40,
		Cores:         4,
		BypassEnabled: true,
	}
}

// Table2Params is MultiCoreParams with the paper's published Table 2
// feature set, for side-by-side comparison.
func Table2Params() Params {
	p := MultiCoreParams()
	p.Features = MultiProgrammedSet()
	return p
}

// MPPPB is the multiperspective placement, promotion and bypass policy: a
// cache.ReplacementPolicy for the LLC driven by the multiperspective
// predictor. The prediction/training engine lives in the embedded Advisor
// (constructible and drivable on its own, e.g. by the serving layer);
// MPPPB adds the default-policy victim search and the cache hook
// protocol.
type MPPPB struct {
	*Advisor
	mdpp  *policy.MDPP
	srrip *policy.SRRIP
	ways  int

	// Victim→Fill memo: the cache calls Victim and, unless it bypasses,
	// Fill for the same access back-to-back with no predictor activity in
	// between, so Fill can reuse the confidence (and the index vector left
	// in the predictor) instead of recomputing. pendValid only survives
	// from a non-bypass Victim to the immediately following Fill.
	pendValid bool
	pendSet   int
	pendBlock uint64
	pendPC    uint64
	pendConf  int
}

// NewMPPPB builds the policy for an LLC geometry.
func NewMPPPB(sets, ways int, params Params) *MPPPB {
	if len(params.Features) == 0 {
		panic("core: MPPPB requires a feature set")
	}
	m := &MPPPB{
		Advisor: NewAdvisor(sets, params),
		ways:    ways,
	}
	switch params.Default {
	case DefaultMDPP:
		m.mdpp = policy.NewMDPP(sets, ways)
	case DefaultSRRIP:
		m.srrip = policy.NewSRRIP(sets, ways)
	default:
		panic(fmt.Sprintf("core: unknown default policy %d", params.Default))
	}
	return m
}

// MDPP returns the underlying MDPP default policy, or nil when the policy
// runs over SRRIP. Exposed for the verification layer.
func (m *MPPPB) MDPP() *policy.MDPP { return m.mdpp }

// SRRIP returns the underlying SRRIP default policy, or nil when the
// policy runs over MDPP. Exposed for the verification layer.
func (m *MPPPB) SRRIP() *policy.SRRIP { return m.srrip }

// CheckInvariants validates the policy's structural invariants: placement
// and promotion positions within the default policy's position space,
// weights within saturation bounds, and well-formed sampler LRU state.
// It returns the first violation found, or nil. Intended for the -check
// verification layer; it is read-only and safe to call at any point.
func (m *MPPPB) CheckInvariants() error {
	limit := int(policy.RRPVMax) + 1
	if m.mdpp != nil {
		limit = m.mdpp.Positions()
	}
	for c, ts := range m.thresholdSets() {
		for i, pi := range ts.Pi {
			if pi < 0 || pi >= limit {
				return fmt.Errorf("core: candidate %d placement position Pi[%d]=%d outside [0,%d)", c, i, pi, limit)
			}
		}
		if ts.PromotePos < 0 || ts.PromotePos >= limit {
			return fmt.Errorf("core: candidate %d promotion position %d outside [0,%d)", c, ts.PromotePos, limit)
		}
	}
	return m.CheckState()
}

// Name implements cache.ReplacementPolicy.
func (m *MPPPB) Name() string {
	name := "mpppb-srrip"
	if m.params.Default == DefaultMDPP {
		name = "mpppb-mdpp"
	}
	if m.duel != nil {
		name += "-adaptive"
	}
	return name
}

// Hit implements cache.ReplacementPolicy: the hit-side decision
// (AdviseHit) applied to the default policy.
func (m *MPPPB) Hit(set, way int, a cache.Access) {
	if adv := m.AdviseHit(a, set); adv.Promote {
		m.setPosition(set, way, int(adv.Pos))
	}
}

// Victim implements cache.ReplacementPolicy: decide bypass, else delegate
// victim selection to the default policy. A placed miss trains at Fill,
// not here: the -check reference compares the production confidence
// before Fill, which must still see the untrained weights.
func (m *MPPPB) Victim(set int, a cache.Access) (int, bool) {
	conf := m.predictMiss(a, set)
	if m.bypasses(set, conf) {
		// Bypassed: Fill will not run, so decline the fill here.
		m.decline(a, set, conf)
		m.pendValid = false
		return 0, true
	}
	m.pendValid = true
	m.pendSet = set
	m.pendBlock = a.Block()
	m.pendPC = a.PC
	m.pendConf = conf
	if m.mdpp != nil {
		return m.mdpp.VictimWay(set), false
	}
	w, _ := m.srrip.Victim(set, a)
	return w, false
}

// Fill implements cache.ReplacementPolicy: place the block at the
// position the thresholds select.
func (m *MPPPB) Fill(set, way int, a cache.Access) {
	var conf int
	if m.pendValid && m.pendSet == set && m.pendBlock == a.Block() && m.pendPC == a.PC {
		// Same access Victim just predicted (and voted with the duel),
		// with no predictor activity in between: the confidence and index
		// vector are still valid, and no duel event can land between a
		// Victim and its Fill, so place reads the winner Victim read.
		conf = m.pendConf
	} else {
		// Fill without a preceding Victim (invalid frame): this is the
		// miss's only hook.
		conf = m.predictMiss(a, set)
	}
	m.pendValid = false
	pos, _ := m.place(a, set, conf)
	m.setPosition(set, way, pos)
}

// setPosition moves a block to a placement or promotion position in the
// default policy's units.
func (m *MPPPB) setPosition(set, way, pos int) {
	if m.mdpp != nil {
		m.mdpp.PlaceAt(set, way, pos)
	} else {
		m.srrip.SetRRPV(set, way, uint8(pos))
	}
}

// Evict implements cache.ReplacementPolicy. Evictions carry no special
// significance for training (Section 3.8): each feature's A parameter
// defines its own eviction boundary inside the sampler.
func (m *MPPPB) Evict(int, int, uint64) {}

// SizeBits reports total storage for the predictor, sampler, and default
// policy state, for comparison with Section 4.4's budget accounting.
func (m *MPPPB) SizeBits(sets int) int {
	bits := m.pred.SizeBits() + m.sampler.SizeBits(m.pred.TotalIndexBits())
	if m.mdpp != nil {
		bits += sets * (m.ways - 1) // tree PLRU bits
	} else {
		bits += sets * m.ways * 2 // 2-bit RRPVs
	}
	return bits
}

var _ cache.ReplacementPolicy = (*MPPPB)(nil)
