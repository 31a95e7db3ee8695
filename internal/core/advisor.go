package core

import (
	"mpppb/internal/cache"
	"mpppb/internal/obs"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// Advice is one advisory decision from the predictor: what a cache holding
// the accessed block (hit side) or about to fill it (miss side) should do.
// It is a pure value — applying it to an actual cache array is the
// caller's business — which is what lets the same engine drive the inline
// MPPPB policy and the network serving path with identical state
// evolution.
type Advice struct {
	// Conf is the clamped predictor confidence (ConfMin..ConfMax); higher
	// means more confidently dead.
	Conf int16
	// Bypass advises not caching the block at all (miss side only, and
	// only when the miss allowed bypass).
	Bypass bool
	// Promote advises promoting the block to Pos (hit side only); when
	// false the block's recency position should be left alone.
	Promote bool
	// Pos is the placement position (miss side) or promotion position
	// (hit side), in the default policy's position units.
	Pos int8
	// Slot is the placement statistic slot: 0 = MRU, 1..3 = π1..π3
	// (miss side only).
	Slot uint8
}

// Advisor is the standalone advice engine behind MPPPB: the
// multiperspective predictor, the training sampler, and the
// threshold-based decision logic of Section 3.6 — everything the policy
// does except touching a cache array. It is constructible and drivable
// without a simulation run: feed it hit/miss events via AdviseHit and
// AdviseMiss and it returns placement/promotion/bypass advice while
// training itself exactly as the inline policy would.
//
// MPPPB embeds an Advisor and layers the default-policy victim search and
// the cache hook protocol on top; the serving layer (internal/serve)
// drives Advisors directly, one per client.
type Advisor struct {
	params  Params
	sets    int
	pred    *Predictor
	sampler *sampler

	// static is the fixed threshold configuration (params.Thresholds()).
	// In adaptive mode duel picks one of cands per set instead (see
	// thresholdsFor), and each winner change is published to the
	// mpppb_adaptive_* metrics.
	static        ThresholdSet
	cands         []ThresholdSet
	duel          *policy.Duel
	winnerGauge   *obs.Gauge
	switchCounter *obs.Counter

	// Decision counters. Exported (and promoted through MPPPB) so drivers
	// and tests can read them directly.
	Bypasses    uint64
	NoPromotes  uint64
	Placements  [4]uint64 // [0]=MRU, [1..3]=Pi index+1
	TrainEvents uint64
}

// NewAdvisor builds a standalone advice engine modeling an LLC with the
// given number of sets.
func NewAdvisor(sets int, params Params) *Advisor {
	if len(params.Features) == 0 {
		panic("core: advisor requires a feature set")
	}
	if err := params.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	v := &Advisor{
		params:  params,
		sets:    sets,
		pred:    NewPredictor(params.Features, sets, max(1, params.Cores)),
		sampler: newSampler(sets, params.SamplerSets, params.Features, params.Theta),
		static:  params.Thresholds(),
	}
	if d, ok := params.ResolvedDuel(); ok {
		v.startDuel(d)
	}
	return v
}

// Predictor exposes the underlying predictor (for accuracy probes and the
// verification layer's weight comparison).
func (v *Advisor) Predictor() *Predictor { return v.pred }

// Params returns the advisor's configuration. The verification layer uses
// it to construct a lockstep reference with identical geometry.
func (v *Advisor) Params() Params { return v.params }

// Sets returns the number of LLC sets the advisor models.
func (v *Advisor) Sets() int { return v.sets }

// SetFor maps a block address to the advisor's set index, the way the
// modeled LLC would index it.
func (v *Advisor) SetFor(block uint64) int { return int(block) & (v.sets - 1) }

// Predict implements the confidence interface used by the ROC probe: the
// prediction for an access without updating any state.
func (v *Advisor) Predict(a cache.Access, set int, insert bool) int {
	return v.pred.Confidence(a, set, insert)
}

// train performs the sampler access that updates the weight tables, using
// the index vector left in the predictor by its last prediction for this
// same access. Only this reads the index vector, so predictions ask for it
// only on sampled sets.
func (v *Advisor) train(a cache.Access, set, conf int) {
	if ss := v.sampler.sampledSet(set); ss >= 0 {
		v.sampler.access(v.pred, ss, a.Block(), conf, v.pred.idx)
		v.TrainEvents++
	}
}

// AdviseHit is the hit-side decision (Section 3.6: "On a cache hit, if the
// value exceeds a threshold τ4, then the block is not promoted"): predict,
// train, decide promotion, and update predictor state. MPPPB.Hit applies
// its advice. Writeback hits carry no prediction and leave all state
// untouched.
func (v *Advisor) AdviseHit(a cache.Access, set int) Advice {
	if a.Type == trace.Writeback {
		return Advice{}
	}
	conf := v.pred.predict(a, set, false, v.sampler.sampledSet(set) >= 0)
	v.train(a, set, conf)
	ts := v.thresholdsFor(set)
	adv := Advice{Conf: int16(conf)}
	if conf > ts.Tau4 {
		v.NoPromotes++
	} else {
		adv.Promote = true
		adv.Pos = int8(ts.PromotePos)
	}
	v.pred.observe(a, set, false, true)
	return adv
}

// AdviseMiss is the miss-side decision: predict, decide bypass versus
// placement position, train, and update predictor state. mayBypass
// reports whether the caller is able to decline the fill — false when the
// set has an invalid frame, mirroring cache.Cache, which only consults
// Victim (the bypass point) when the set is full. It runs the same steps
// as the inline policy's Victim+Fill (or bare Fill) sequence, so their
// state evolution is identical. Writeback misses never allocate and leave
// all state untouched.
func (v *Advisor) AdviseMiss(a cache.Access, set int, mayBypass bool) Advice {
	if a.Type == trace.Writeback {
		return Advice{Bypass: true}
	}
	conf := v.predictMiss(a, set)
	if mayBypass && v.bypasses(set, conf) {
		v.decline(a, set, conf)
		return Advice{Conf: int16(conf), Bypass: true}
	}
	pos, slot := v.place(a, set, conf)
	return Advice{Conf: int16(conf), Pos: int8(pos), Slot: uint8(slot)}
}

// The miss-side steps of Section 3.6, shared by AdviseMiss and MPPPB's
// Victim and Fill hooks.

// predictMiss votes the miss with the duel — in adaptive mode before any
// threshold read — and predicts it.
func (v *Advisor) predictMiss(a cache.Access, set int) int {
	v.duelVote(set)
	return v.pred.predict(a, set, true, v.sampler.sampledSet(set) >= 0)
}

// bypasses reports whether a miss with confidence conf is dead enough to
// decline (confidence > τ0), when bypass is enabled.
func (v *Advisor) bypasses(set, conf int) bool {
	return v.params.BypassEnabled && conf > v.thresholdsFor(set).Tau0
}

// decline trains on a bypassed miss, counts it, and records it as not
// resident.
func (v *Advisor) decline(a cache.Access, set, conf int) {
	v.train(a, set, conf)
	v.Bypasses++
	v.pred.observe(a, set, true, false)
}

// place trains on a placed miss, picks its position and statistic slot
// (0 = MRU) from the thresholds, counts it, and records it as resident.
func (v *Advisor) place(a cache.Access, set, conf int) (pos, slot int) {
	v.train(a, set, conf)
	pos, slot = v.thresholdsFor(set).placement(conf)
	v.Placements[slot]++
	v.pred.observe(a, set, true, true)
	return pos, slot
}

// ForEachSamplerEntry visits every valid sampler entry with its sampler
// set, LRU position, partial tag, and stored confidence. Exposed for the
// verification layer's lockstep sampler comparison.
func (v *Advisor) ForEachSamplerEntry(fn func(set, pos int, tag uint16, conf int)) {
	s := v.sampler
	for set := 0; set < s.sets; set++ {
		for w := 0; w < SamplerWays; w++ {
			e := &s.entries[set*SamplerWays+w]
			if e.valid {
				fn(set, int(e.pos), e.tag, int(e.conf))
			}
		}
	}
}

// CheckState validates the advisor's structural invariants — weights
// within saturation bounds and well-formed sampler LRU state — returning
// the first violation found, or nil. Read-only and safe at any point.
func (v *Advisor) CheckState() error {
	if err := v.pred.checkWeights(); err != nil {
		return err
	}
	return v.sampler.checkInvariants()
}

// Stats returns the advisor's decision counters.
func (v *Advisor) Stats() PolicyStats {
	return PolicyStats{
		Bypasses:    v.Bypasses,
		NoPromotes:  v.NoPromotes,
		TrainEvents: v.TrainEvents,
		Placements:  v.Placements,
	}
}
