package verify

import (
	"mpppb/internal/cache"
	"mpppb/internal/trace"
)

// AttachPrivate interposes the verification layer on a core's private
// level, the one a capture runs, before its first access. A private level
// ranks its frames itself, with no policy to wrap, so the checker observes
// each completed access: the true-LRU oracle mirrors it and compares the
// touched set's ranks, and every eviction's way, with the reference stack;
// then the content model replays it. Both run in full every sweep.
func AttachPrivate(l *cache.PrivateLevel) *Checker {
	k := &Checker{c: l, sweepEvery: DefaultSweepEvery}
	k.Fail = func(err error) { panic(err) }
	k.model = newCacheModel(k, l)
	k.ranks = newLRUOracle(k, l, l.Sets(), l.Ways())
	l.SetObserver(privateCheck{k})
	return k
}

// privateCheck is the observer AttachPrivate hangs on a private level.
type privateCheck struct{ k *Checker }

// OnLevelAccess implements cache.LevelObserver. The oracle goes first, so
// a sweep the content model triggers compares ranks that include this
// access.
func (p privateCheck) OnLevelAccess(block uint64, typ trace.AccessType, r cache.Result) {
	p.k.ranks.observe(r)
	p.k.model.check(block<<trace.BlockBits, typ, r)
}

// observe mirrors one completed access of a private level: a writeback
// miss changes nothing; an eviction must take the reference's least
// recent way; a hit or a fill moves its way to MRU.
func (o *lruOracle) observe(r cache.Result) {
	if r.Bypassed {
		return
	}
	if r.EvictedValid {
		if exp := o.stack[r.Set][o.ways-1]; r.Way != exp {
			o.k.failf(o.dump(r.Set), "lru: set %d victim way %d, reference way %d", r.Set, r.Way, exp)
		}
	}
	o.touch(r.Set, r.Way)
	o.checkSet(r.Set)
}
