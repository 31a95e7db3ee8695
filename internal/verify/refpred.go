package verify

import (
	"fmt"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// mpppbOracle runs a from-scratch reimplementation of the full MPPPB stack
// in lockstep with the production policy: the predictor via the reference
// Feature.Index path over explicit history arrays and per-feature weight
// slices, the sampler as an MRU-first ordered list per sampled set, and the
// default policy (MDPP tree or SRRIP RRPVs) as a naive model driven by the
// reference's own placement decisions.
//
// Every prediction is compared against the production confidence before the
// production hook trains; victim choices, bypass decisions, and per-set
// recency state are compared after each hook; the periodic sweep compares
// the complete weight tables and sampler contents and runs the policy's
// structural invariant checks.
type mpppbOracle struct {
	baseOracle
	*refEngine
	k *Checker
	m *core.MPPPB

	// Reference default-policy state (exactly one is non-nil).
	tree *refTree
	rrpv [][]uint8
	ways int

	// Victim→Fill memo mirroring the production policy.
	pendValid bool
	pendSet   int
	pendBlock uint64
	pendPC    uint64
	pendConf  int

	// Victim expectation recorded by preVictim.
	expBypass bool
	expVictim int
	skipHit   bool
}

type refSampEntry struct {
	tag  uint16
	conf int
	idx  []uint16
}

// refEngine is the reference reimplementation of the prediction/training
// engine (core.Advisor): the predictor via the Feature.Index path over
// explicit history arrays and per-feature weight slices, and the sampler
// as an MRU-first ordered list per sampled set. It is shared by the
// lockstep cache oracle (mpppbOracle) and the serving-path shadow
// (RefAdvisor).
type refEngine struct {
	params core.Params
	feats  []core.Feature

	// static is the fixed threshold configuration; in adaptive mode duel
	// picks one of cands per set instead (mirroring core.Advisor).
	static core.ThresholdSet
	cands  []core.ThresholdSet
	duel   *refDuel

	// Reference predictor state.
	weights   [][]int8
	hist      [][]uint64 // per core, MRU-first recent PCs, length MaxW
	lastMiss  []bool
	lastBlock []uint64
	haveBlock []bool
	idx       []uint16 // index vector of the latest reference prediction

	// Reference sampler: per sampled set, MRU-first entries (position ==
	// slice index).
	sampSets int
	spacing  int
	samp     [][]refSampEntry
}

func newRefEngine(params core.Params, sets int) *refEngine {
	cores := params.Cores
	if cores < 1 {
		cores = 1
	}
	sampSets := params.SamplerSets
	if sampSets > sets {
		sampSets = sets
	}
	e := &refEngine{
		params:    params,
		feats:     params.Features,
		weights:   make([][]int8, len(params.Features)),
		hist:      make([][]uint64, cores),
		lastMiss:  make([]bool, sets),
		lastBlock: make([]uint64, sets),
		haveBlock: make([]bool, sets),
		idx:       make([]uint16, len(params.Features)),
		sampSets:  sampSets,
		spacing:   sets / sampSets,
		samp:      make([][]refSampEntry, sampSets),
	}
	for i, f := range e.feats {
		e.weights[i] = make([]int8, f.TableSize())
	}
	for c := range e.hist {
		e.hist[c] = make([]uint64, core.MaxW)
	}
	e.static = params.Thresholds()
	if d, ok := params.ResolvedDuel(); ok {
		e.cands = d.Candidates
		e.duel = newRefDuel(sets, len(d.Candidates), policy.Layout{Grouped: true, Leaders: d.Groups},
			policy.Rule{Kind: policy.Window, Max: d.PselMax, Period: d.Window})
	}
	return e
}

// thresholdsFor returns the threshold configuration active for a set,
// mirroring core.Advisor.thresholdsFor.
func (e *refEngine) thresholdsFor(set int) *core.ThresholdSet {
	if e.duel != nil {
		return &e.cands[e.duel.pick(set)]
	}
	return &e.static
}

// vote records a non-writeback miss with the reference duel, if adaptive
// mode is on. Mirrors core.Advisor.duelVote: exactly once per miss, before
// any threshold read.
func (e *refEngine) vote(set int) {
	if e.duel != nil {
		e.duel.vote(set)
	}
}

func newMPPPBOracle(k *Checker, m *core.MPPPB, sets, ways int) *mpppbOracle {
	params := m.Params()
	o := &mpppbOracle{
		refEngine: newRefEngine(params, sets),
		k:         k,
		m:         m,
		ways:      ways,
	}
	if params.Default == core.DefaultMDPP {
		o.tree = newRefTree(sets, ways)
	} else {
		o.rrpv = make([][]uint8, sets)
		for s := range o.rrpv {
			o.rrpv[s] = make([]uint8, ways)
			for w := range o.rrpv[s] {
				o.rrpv[s][w] = policy.RRPVMax
			}
		}
	}
	return o
}

// refTag mirrors the sampler's partial-tag hash, which is part of the
// policy's specification (the same 16 tag bits must collide the same way).
func refTag(block uint64) uint16 {
	return uint16((block * 0x9e3779b97f4a7c15) >> 48)
}

func (e *refEngine) coreOf(a cache.Access) int {
	c := a.Core
	if c < 0 || c >= len(e.hist) {
		c = 0
	}
	return c
}

// predict computes the reference confidence for an access, leaving the
// per-feature index vector in e.idx.
func (e *refEngine) predict(a cache.Access, set int, insert bool) int {
	var in core.Input
	in.PC = a.PC
	in.Addr = a.Addr
	in.Insert = insert
	in.LastMiss = e.lastMiss[set]
	in.Burst = !insert && e.haveBlock[set] && e.lastBlock[set] == a.Block()
	in.History[0] = a.PC
	copy(in.History[1:], e.hist[e.coreOf(a)])
	sum := 0
	for i, f := range e.feats {
		ix := f.Index(&in)
		e.idx[i] = uint16(ix)
		sum += int(e.weights[i][ix])
	}
	if sum < core.ConfMin {
		sum = core.ConfMin
	}
	if sum > core.ConfMax {
		sum = core.ConfMax
	}
	return sum
}

// observe mirrors the predictor's post-access state update.
func (e *refEngine) observe(a cache.Access, set int, miss, resident bool) {
	e.lastMiss[set] = miss
	if resident {
		e.lastBlock[set] = a.Block()
		e.haveBlock[set] = true
	}
	h := e.hist[e.coreOf(a)]
	copy(h[1:], h[:len(h)-1])
	h[0] = a.PC
}

// bump adjusts one reference weight with saturating arithmetic.
func (e *refEngine) bump(feature int, ix uint16, up bool) {
	w := &e.weights[feature][ix]
	if up {
		if *w < core.WeightMax {
			*w++
		}
	} else if *w > core.WeightMin {
		*w--
	}
}

// train performs the reference sampler access for a set, if sampled, using
// the index vector left in e.idx by the latest reference prediction.
func (e *refEngine) train(a cache.Access, set, conf int) {
	if set%e.spacing != 0 {
		return
	}
	ss := set / e.spacing
	if ss >= e.sampSets {
		return
	}
	e.samplerAccess(ss, a.Block(), conf)
}

// samplerAccess replays one sampler access on the MRU-first list: reuse
// trains live for features reaching the hit position, demotions landing on
// a feature's A parameter train dead, and the list order is the LRU stack.
func (e *refEngine) samplerAccess(ss int, block uint64, conf int) {
	tag := refTag(block)
	list := e.samp[ss]
	hit := -1
	for j := range list {
		if list[j].tag == tag {
			hit = j
			break
		}
	}

	if hit >= 0 {
		ent := list[hit]
		if ent.conf > -e.params.Theta {
			for i, f := range e.feats {
				if hit < f.A {
					e.bump(i, ent.idx[i], false)
				}
			}
		}
		// Entries above the hit demote by one position; a demotion landing
		// exactly on a feature's A parameter is an eviction from that
		// feature's virtual cache.
		for pos := 0; pos < hit; pos++ {
			e.trainDemoted(list[pos], pos+1)
		}
		copy(list[1:hit+1], list[:hit])
		ent.conf = conf
		ent.idx = append([]uint16(nil), e.idx...)
		list[0] = ent
		return
	}

	// Miss: every resident entry demotes by one; the entry leaving the last
	// position is evicted after its demotion trains.
	for pos := range list {
		e.trainDemoted(list[pos], pos+1)
	}
	if len(list) == core.SamplerWays {
		list = list[:len(list)-1]
	}
	list = append(list, refSampEntry{})
	copy(list[1:], list[:len(list)-1])
	list[0] = refSampEntry{tag: tag, conf: conf, idx: append([]uint16(nil), e.idx...)}
	e.samp[ss] = list
}

// trainDemoted trains dead for features whose A parameter equals the
// demoted entry's new position, unless the entry is already confidently
// dead.
func (e *refEngine) trainDemoted(ent refSampEntry, newPos int) {
	if ent.conf >= e.params.Theta {
		return
	}
	for i, f := range e.feats {
		if f.A == newPos {
			e.bump(i, ent.idx[i], true)
		}
	}
}

// placement maps a confidence to a recency position per Section 3.6 under
// the set's active thresholds; slot indexes the placement statistic
// (0 = MRU), mirroring core.Advisor.
func (e *refEngine) placement(set, conf int) (pos, slot int) {
	t := e.thresholdsFor(set)
	switch {
	case conf > t.Tau1:
		return t.Pi[0], 1
	case conf > t.Tau2:
		return t.Pi[1], 2
	case conf > t.Tau3:
		return t.Pi[2], 3
	default:
		return 0, 0
	}
}

// place applies a placement/promotion position to the reference default-
// policy model.
func (o *mpppbOracle) place(set, way, pos int) {
	if o.tree != nil {
		o.tree.touch(set, way, pos)
	} else {
		o.rrpv[set][way] = uint8(pos)
	}
}

// defaultVictim returns the reference default policy's victim, mirroring
// any aging side effects the production search performs.
func (o *mpppbOracle) defaultVictim(set int) int {
	if o.tree != nil {
		return o.tree.victim(set)
	}
	for {
		for w := 0; w < o.ways; w++ {
			if o.rrpv[set][w] == policy.RRPVMax {
				return w
			}
		}
		for w := 0; w < o.ways; w++ {
			o.rrpv[set][w]++
		}
	}
}

// compareConf checks the reference confidence against the production
// predictor's. The production call trains nothing, but it overwrites the
// predictor's index vector, which MPPPB's Fill reuses after its Victim;
// every probe here predicts the access the hook around it is handling, so
// the vector it leaves is the one that hook computes or reuses, and
// probing does not disturb the run.
func (o *mpppbOracle) compareConf(a cache.Access, set int, insert bool, refConf int) {
	if prod := o.m.Predict(a, set, insert); prod != refConf {
		o.k.failf("", "mpppb: set %d %v access %#x (pc %#x, insert=%v): production confidence %d, reference %d",
			set, a.Type, a.Addr, a.PC, insert, prod, refConf)
	}
}

// compareSet checks the production default-policy state of one set.
func (o *mpppbOracle) compareSet(set int) {
	if o.tree != nil {
		if got, want := o.m.MDPP().Tree().Bits(set), o.tree.packed(set); got != want {
			o.k.failf(o.tree.dump(set), "mpppb: set %d mdpp bits %#x, reference %#x", set, got, want)
		}
		return
	}
	s := o.m.SRRIP()
	for w := 0; w < o.ways; w++ {
		if got := s.RRPV(set, w); got != o.rrpv[set][w] {
			o.k.failf(fmt.Sprintf("  reference rrpv: %v", o.rrpv[set]),
				"mpppb: set %d way %d rrpv %d, reference %d", set, w, got, o.rrpv[set][w])
			return
		}
	}
}

func (o *mpppbOracle) preHit(set, way int, a cache.Access) {
	if a.Type == trace.Writeback {
		o.skipHit = true
		return
	}
	o.skipHit = false
	conf := o.predict(a, set, false)
	o.compareConf(a, set, false, conf)
	o.train(a, set, conf)
	if ts := o.thresholdsFor(set); conf <= ts.Tau4 {
		o.place(set, way, ts.PromotePos)
	}
	o.observe(a, set, false, true)
}

func (o *mpppbOracle) postHit(set, _ int, _ cache.Access) {
	if o.skipHit {
		return
	}
	o.compareSet(set)
}

func (o *mpppbOracle) preVictim(set int, a cache.Access) {
	// The duel vote lands first, before any threshold read, mirroring the
	// production Victim hook.
	o.vote(set)
	conf := o.predict(a, set, true)
	o.compareConf(a, set, true, conf)
	if o.params.BypassEnabled && conf > o.thresholdsFor(set).Tau0 {
		o.expBypass = true
		o.train(a, set, conf)
		o.observe(a, set, true, false)
		o.pendValid = false
		return
	}
	o.expBypass = false
	o.pendValid = true
	o.pendSet = set
	o.pendBlock = a.Block()
	o.pendPC = a.PC
	o.pendConf = conf
	o.expVictim = o.defaultVictim(set)
}

func (o *mpppbOracle) postVictim(set int, a cache.Access, way int, bypass bool) {
	if bypass != o.expBypass {
		o.k.failf("", "mpppb: set %d access %#x: production bypass=%v, reference bypass=%v",
			set, a.Addr, bypass, o.expBypass)
		return
	}
	if !bypass && way != o.expVictim {
		o.k.failf(o.dumpDefault(set), "mpppb: set %d victim way %d, reference way %d",
			set, way, o.expVictim)
	}
}

func (o *mpppbOracle) preFill(set, way int, a cache.Access) {
	var conf int
	if o.pendValid && o.pendSet == set && o.pendBlock == a.Block() && o.pendPC == a.PC {
		// Same access the reference just predicted in preVictim; the index
		// vector in o.idx is still that prediction's, and preVictim already
		// voted this miss with the duel.
		conf = o.pendConf
	} else {
		// Fill without a preceding Victim (invalid frame) — this is the
		// miss's only hook, so the duel vote lands here.
		o.vote(set)
		conf = o.predict(a, set, true)
	}
	o.compareConf(a, set, true, conf)
	o.pendValid = false
	o.train(a, set, conf)
	pos, _ := o.placement(set, conf)
	o.place(set, way, pos)
	o.observe(a, set, true, true)
}

func (o *mpppbOracle) postFill(set, _ int, _ cache.Access) {
	o.compareSet(set)
}

func (o *mpppbOracle) dumpDefault(set int) string {
	if o.tree != nil {
		return o.tree.dump(set)
	}
	return fmt.Sprintf("  reference rrpv: %v", o.rrpv[set])
}

// diffState compares the reference engine's complete prediction/training
// state — every weight and every sampler entry, in both directions —
// against a production advisor's, returning a description of the first
// mismatch or nil. Shared by the cache oracle's periodic sweep and the
// serving-path shadow (RefAdvisor.CompareState).
func (e *refEngine) diffState(adv *core.Advisor) error {
	// Weight tables.
	var firstErr error
	adv.Predictor().ForEachWeight(func(feature, index int, w int8) {
		if firstErr != nil {
			return
		}
		if ref := e.weights[feature][index]; ref != w {
			firstErr = fmt.Errorf("mpppb: weight table %d (%v) index %d: production %d, reference %d",
				feature, e.feats[feature], index, w, ref)
		}
	})
	if firstErr != nil {
		return firstErr
	}

	// Sampler contents: production entries keyed by (set, position) must
	// match the reference list exactly, in both directions.
	prodCount := 0
	adv.ForEachSamplerEntry(func(set, pos int, tag uint16, conf int) {
		prodCount++
		if firstErr != nil {
			return
		}
		if set >= len(e.samp) || pos >= len(e.samp[set]) {
			firstErr = fmt.Errorf("mpppb: production sampler entry (set %d, pos %d) absent from reference", set, pos)
			return
		}
		ent := e.samp[set][pos]
		if ent.tag != tag || ent.conf != conf {
			firstErr = fmt.Errorf("mpppb: sampler set %d pos %d: production tag %#x conf %d, reference tag %#x conf %d",
				set, pos, tag, conf, ent.tag, ent.conf)
		}
	})
	if firstErr != nil {
		return firstErr
	}
	refCount := 0
	for _, list := range e.samp {
		refCount += len(list)
	}
	if prodCount != refCount {
		return fmt.Errorf("mpppb: production sampler holds %d entries, reference %d", prodCount, refCount)
	}

	// Adaptive duel state, when the configuration duels.
	d := adv.Duel()
	switch {
	case e.duel == nil && d != nil:
		return fmt.Errorf("mpppb: production advisor duels but reference is static")
	case e.duel != nil && d == nil:
		return fmt.Errorf("mpppb: reference duels but production advisor is static")
	case e.duel != nil:
		if err := e.duel.diff(d, 0, len(e.duel.leader)); err != nil {
			return fmt.Errorf("mpppb: %v", err)
		}
	}
	return nil
}

// sweep compares complete state: every weight, every sampler entry, every
// set's default-policy state, plus the production policy's own structural
// invariants.
func (o *mpppbOracle) sweep() {
	// Weight tables and sampler contents, via the shared engine diff.
	if err := o.diffState(o.m.Advisor); err != nil {
		o.k.failf("", "%v", err)
	}

	// Default-policy recency state of every set.
	for set := range o.lastMiss {
		o.compareSet(set)
	}

	// Structural invariants of the production policy itself.
	if err := o.m.CheckInvariants(); err != nil {
		o.k.failf("", "mpppb: invariant violation: %v", err)
	}
}
