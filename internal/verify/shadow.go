package verify

import (
	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
)

// oracle is a lockstep reference implementation of one replacement policy.
// pre hooks run before the production hook (and are where predictions are
// compared, since production hooks train as a side effect); post hooks run
// after it and compare the resulting per-set state. sweep compares complete
// state (every set, weight tables, sampler) and is invoked periodically by
// the checker. Oracles report disagreements through Checker.failf.
type oracle interface {
	preHit(set, way int, a cache.Access)
	postHit(set, way int, a cache.Access)
	preVictim(set int, a cache.Access)
	postVictim(set int, a cache.Access, way int, bypass bool)
	preFill(set, way int, a cache.Access)
	postFill(set, way int, a cache.Access)
	sweep()
}

// shadowPolicy wraps the production policy, running the matching oracle in
// lockstep around every hook. The set-dueling DIP, DRRIP, dynamic MDPP and
// MPPPB+Hawkeye hybrid get the reference duel alone; policies with no
// registered oracle (random, BIP, SHiP, SDBP, Perceptron, Hawkeye, probes)
// pass through unchecked. The content model still verifies all of them at
// the cache level.
type shadowPolicy struct {
	k     *Checker
	inner cache.ReplacementPolicy
	o     oracle // nil when no oracle matches
}

func newShadowPolicy(k *Checker, inner cache.ReplacementPolicy, sets, ways int) *shadowPolicy {
	s := &shadowPolicy{k: k, inner: inner}
	switch p := inner.(type) {
	case *policy.LRU:
		s.o = newLRUOracle(k, p, sets, ways)
	case *policy.SRRIP:
		s.o = newSRRIPOracle(k, p, sets, ways)
	case *policy.TreePLRU:
		s.o = newPLRUOracle(k, p, sets, ways)
	case *policy.MDPP:
		s.o = newMDPPOracle(k, p, sets, ways)
	case *core.MPPPB:
		s.o = newMPPPBOracle(k, p, sets, ways)
	case *policy.DIP:
		s.o = newDuelOracle(k, p.Name(), p.Duel(), twoWayRefDuel(sets), false)
	case *policy.DRRIP:
		s.o = newDuelOracle(k, p.Name(), p.Duel(), twoWayRefDuel(sets), false)
	case *policy.DynMDPP:
		s.o = newDuelOracle(k, p.Name(), p.Duel(), dynMDPPRefDuel(sets), false)
	case *core.Hybrid:
		s.o = newDuelOracle(k, p.Name(), p.Duel(), twoWayRefDuel(sets), true)
	}
	return s
}

// RankedPolicy is a replacement policy exposing true-LRU recency ranks.
// AttachWithLRUOracle uses it to force LRU checking onto a policy the type
// switch would not recognize — e.g. a deliberately broken variant in a test
// demonstrating that the oracle catches an injected bug.
type RankedPolicy interface {
	cache.ReplacementPolicy
	Rank(set, way int) int
}

// AttachWithLRUOracle attaches the verification layer with the true-LRU
// oracle paired explicitly to the cache's policy, which must implement
// RankedPolicy and claim LRU semantics.
func AttachWithLRUOracle(c *cache.Cache) *Checker {
	p, ok := c.Policy().(RankedPolicy)
	if !ok {
		panic("verify: cache policy does not expose LRU ranks")
	}
	k := &Checker{c: c, sweepEvery: DefaultSweepEvery}
	k.Fail = func(err error) { panic(err) }
	k.shadow = &shadowPolicy{k: k, inner: p, o: newLRUOracle(k, p, c.Sets(), c.Ways())}
	k.model = newCacheModel(k, c)
	c.SetPolicy(k.shadow)
	c.SetObserver(k.model)
	return k
}

// Name implements cache.ReplacementPolicy.
func (s *shadowPolicy) Name() string { return s.inner.Name() }

// Hit implements cache.ReplacementPolicy.
func (s *shadowPolicy) Hit(set, way int, a cache.Access) {
	if s.o != nil {
		s.o.preHit(set, way, a)
	}
	s.inner.Hit(set, way, a)
	if s.o != nil {
		s.o.postHit(set, way, a)
	}
}

// Victim implements cache.ReplacementPolicy.
func (s *shadowPolicy) Victim(set int, a cache.Access) (int, bool) {
	if s.o != nil {
		s.o.preVictim(set, a)
	}
	way, bypass := s.inner.Victim(set, a)
	if s.o != nil {
		s.o.postVictim(set, a, way, bypass)
	}
	return way, bypass
}

// Fill implements cache.ReplacementPolicy.
func (s *shadowPolicy) Fill(set, way int, a cache.Access) {
	if s.o != nil {
		s.o.preFill(set, way, a)
	}
	s.inner.Fill(set, way, a)
	if s.o != nil {
		s.o.postFill(set, way, a)
	}
}

// Evict implements cache.ReplacementPolicy. None of the oracled policies
// act on Evict, so the shadow only forwards it.
func (s *shadowPolicy) Evict(set, way int, blockAddr uint64) {
	s.inner.Evict(set, way, blockAddr)
}

// sweep runs the oracle's full-state comparison, if one is attached.
func (s *shadowPolicy) sweep() {
	if s.o != nil {
		s.o.sweep()
	}
}

var _ cache.ReplacementPolicy = (*shadowPolicy)(nil)
