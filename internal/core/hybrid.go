package core

import (
	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/predictor"
	"mpppb/internal/trace"
)

// Hybrid implements the combination the paper's Section 6.2.1 proposes as
// future work: "For 8 benchmarks for which MPPPB does not provide the best
// speedup ... Hawkeye gives the best speedup. This result suggests that
// MPPPB might be combined with Hawkeye to provide superior performance."
//
// The combination uses set-dueling (Qureshi et al.): a few leader sets are
// always managed by MPPPB, a few always by Hawkeye, and a saturating
// policy-select counter — charged by misses in leader sets — picks the
// manager for follower sets. Both constituent policies observe every
// Hit/Fill/Evict so their predictors stay trained regardless of who is
// currently deciding victims.
type Hybrid struct {
	mpppb   *MPPPB
	hawkeye *predictor.Hawkeye
	duel    *policy.Duel // candidate 0 is MPPPB, candidate 1 Hawkeye

	// MPPPBDecisions and HawkeyeDecisions count victim choices delegated
	// to each constituent in follower sets.
	MPPPBDecisions   uint64
	HawkeyeDecisions uint64
}

// NewHybrid builds the set-dueling combination for an LLC geometry, with
// the duel DRRIP and DIP run: 32 complement-select leader sets per
// constituent voting through a ±512 PSEL.
func NewHybrid(sets, ways int, params Params) *Hybrid {
	return &Hybrid{
		mpppb:   NewMPPPB(sets, ways, params),
		hawkeye: predictor.NewHawkeye(sets, ways),
		duel:    policy.NewDuel(sets, 2, policy.Layout{Leaders: 32}, policy.Rule{Kind: policy.PSEL, Max: 512}),
	}
}

// Duel exposes the MPPPB-versus-Hawkeye duel for the verification layer.
func (h *Hybrid) Duel() *policy.Duel { return h.duel }

// Name implements cache.ReplacementPolicy.
func (h *Hybrid) Name() string { return "mpppb+hawkeye" }

// Hit implements cache.ReplacementPolicy: both constituents observe.
func (h *Hybrid) Hit(set, way int, a cache.Access) {
	h.mpppb.Hit(set, way, a)
	h.hawkeye.Hit(set, way, a)
}

// Victim implements cache.ReplacementPolicy: demand and prefetch misses
// vote, and the set's pick chooses (and may bypass, if it is MPPPB).
func (h *Hybrid) Victim(set int, a cache.Access) (int, bool) {
	if a.IsDemand() || a.Type == trace.Prefetch {
		h.duel.Miss(set)
	}
	if h.duel.Pick(set) == 0 {
		h.MPPPBDecisions++
		return h.mpppb.Victim(set, a)
	}
	h.HawkeyeDecisions++
	return h.hawkeye.Victim(set, a)
}

// Fill implements cache.ReplacementPolicy: both constituents observe.
func (h *Hybrid) Fill(set, way int, a cache.Access) {
	h.mpppb.Fill(set, way, a)
	h.hawkeye.Fill(set, way, a)
}

// Evict implements cache.ReplacementPolicy.
func (h *Hybrid) Evict(set, way int, blockAddr uint64) {
	h.mpppb.Evict(set, way, blockAddr)
	h.hawkeye.Evict(set, way, blockAddr)
}

var _ cache.ReplacementPolicy = (*Hybrid)(nil)
