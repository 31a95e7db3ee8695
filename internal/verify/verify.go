// Package verify is the pluggable correctness layer: lockstep differential
// oracles and structural invariant checks for the simulator's fast paths.
//
// Attach interposes two kinds of checking on a cache.Cache, the LLC:
//
//   - A naive, obviously-correct reference cache model runs shadow-by-shadow
//     with the production array via the cache.Observer hook, verifying every
//     hit/miss outcome, fill placement, and eviction.
//   - A shadow replacement-policy wrapper runs a reference implementation of
//     the attached policy (true LRU, SRRIP, tree PLRU, MDPP, the full MPPPB
//     predictor + sampler, or the reference set duel of DIP, DRRIP, dynamic
//     MDPP and the MPPPB+Hawkeye hybrid) in lockstep, comparing victim
//     choices, predictor confidences, duel state, and per-set recency state
//     after every hook, with periodic full-state sweeps (weight tables,
//     sampler contents, duel layout, structural invariants).
//
// AttachPrivate checks a core's private level, L1 or L2, the one a capture
// runs. A private level ranks its frames itself with no policy to wrap,
// so the checker observes each completed access instead: the same content
// model, and the true-LRU oracle comparing the touched set's ranks and
// every eviction's way. No generic cache stands in for the level.
//
// A divergence is reported as a *DivergenceError carrying the exact access
// index and a dump of the affected set in both models. By default the
// checker panics on the first divergence; tests capture reports by
// replacing Fail.
//
// The layer is enabled at runtime with the -check flag on the cmd tools
// (sim.Config.Check), which attaches it to the LLC and to every core's L1
// and L2. Independently, building with the "verify" build tag compiles
// always-on structural assertions into the cache hot paths, the LLC's and
// the private levels'; without the tag those assertions cost nothing
// (dead-code eliminated behind a compile-time constant).
package verify

import (
	"fmt"

	"mpppb/internal/cache"
)

// DivergenceError reports a disagreement between a production fast path and
// its reference model.
type DivergenceError struct {
	// Cache names the cache level being checked (e.g. "llc").
	Cache string
	// Event is the 0-based index of the access being processed when the
	// divergence was detected.
	Event uint64
	// Detail describes the disagreement.
	Detail string
	// Dump renders the affected set in both models, when applicable.
	Dump string
}

// Error implements error.
func (e *DivergenceError) Error() string {
	s := fmt.Sprintf("verify: %s diverged at access %d: %s", e.Cache, e.Event, e.Detail)
	if e.Dump != "" {
		s += "\n" + e.Dump
	}
	return s
}

// level is what a checker reads of the level it checks: a cache.Cache or
// a cache.PrivateLevel.
type level interface {
	Name() string
	Sets() int
	Ways() int
	BlockAddrAt(set, way int) (uint64, bool)
	DumpSet(set int) string
}

// Checker coordinates lockstep verification of one cache level: the
// reference content model plus, for a cache.Cache, the shadow policy
// wrapper, or, for a cache.PrivateLevel, the true-LRU oracle.
type Checker struct {
	c      level
	model  *cacheModel
	shadow *shadowPolicy // a cache.Cache's; nil for a private level
	ranks  *lruOracle    // a private level's; nil for a cache.Cache

	events      uint64 // completed accesses
	sweepEvery  uint64 // full-state sweep period, in events
	divergences uint64

	// Fail is invoked on every divergence or invariant violation. It
	// defaults to panicking with the error; tests replace it to capture
	// reports without unwinding.
	Fail func(error)
}

// DefaultSweepEvery is the default period, in cache events, of the
// full-state sweeps (weight tables, sampler contents, whole-cache content
// comparison, structural invariants).
const DefaultSweepEvery = 4096

// Attach interposes the verification layer on a cache. It must be called
// before the cache's first access. The policy currently attached to the
// cache is wrapped in a shadow that runs the matching reference oracle;
// policies without a registered oracle still get full content-model
// checking.
func Attach(c *cache.Cache) *Checker {
	k := &Checker{c: c, sweepEvery: DefaultSweepEvery}
	k.Fail = func(err error) { panic(err) }
	k.shadow = newShadowPolicy(k, c.Policy(), c.Sets(), c.Ways())
	k.model = newCacheModel(k, c)
	c.SetPolicy(k.shadow)
	c.SetObserver(k.model)
	return k
}

// Events returns the number of cache operations checked so far.
func (k *Checker) Events() uint64 { return k.events }

// Divergences returns the number of divergences reported so far (only
// meaningful when Fail does not panic).
func (k *Checker) Divergences() uint64 { return k.divergences }

// failf reports a divergence at the current event.
func (k *Checker) failf(dump, format string, args ...any) {
	k.divergences++
	k.Fail(&DivergenceError{
		Cache:  k.c.Name(),
		Event:  k.events,
		Detail: fmt.Sprintf(format, args...),
		Dump:   dump,
	})
}

// sweep runs the full-state comparison: whole-cache content, the policy
// oracle's complete state (weights, sampler, recency state of every set),
// and the policy's structural invariants.
func (k *Checker) sweep() {
	k.model.checkAll()
	if k.shadow != nil {
		k.shadow.sweep()
	} else {
		k.ranks.sweep()
	}
}

// Finish runs a final full sweep; call it at the end of a checked run so
// divergences surfacing only in periodically-checked state (weight tables,
// sampler contents) are not missed by the sampling period.
func (k *Checker) Finish() {
	k.sweep()
}
