package cache

import "mpppb/internal/trace"

// PrivateLevel is one of a core's private levels, L1 or L2, as a capture
// runs it. The paper's L1 and L2 are always true LRU and never bypass
// (Section 4.1), so a PrivateLevel ranks its frames itself with a
// Recency: it calls no ReplacementPolicy, builds no Access, keeps no
// arrival cycles (a Port keeps those) and counts nothing. It fills the
// lowest invalid way of a set first and otherwise evicts the way of rank
// ways-1, exactly as a Cache under policy.LRU does, so its frames, victims
// and dirty bits are that Cache's.
type PrivateLevel struct {
	frames
	rec Recency
	obs LevelObserver
}

// LevelObserver receives every access a PrivateLevel completes: the
// block, the access type and the outcome. The verification layer attaches
// one per level under -check; when none is attached the cost is a single
// nil check per access.
type LevelObserver interface {
	OnLevelAccess(block uint64, typ trace.AccessType, r Result)
}

// newPrivateLevel builds a level of sets sets of ways ways, every frame
// invalid. It panics on a geometry a Cache would refuse.
func newPrivateLevel(name string, sets, ways int) *PrivateLevel {
	return &PrivateLevel{frames: newFrames(name, sets, ways), rec: NewRecency(sets, ways)}
}

// Rank returns the recency rank of (set, way): 0 is MRU, ways-1 is LRU.
func (l *PrivateLevel) Rank(set, way int) int { return l.rec.Rank(set, way) }

// SetObserver attaches an observer (nil detaches).
func (l *PrivateLevel) SetObserver(obs LevelObserver) { l.obs = obs }

// access looks block up and, on a miss, fills it. A hit promotes its way
// to MRU, as every access type does under LRU. A writeback that misses
// does not allocate (see Cache.lookupFill); any other miss takes the set's
// lowest invalid way, or else evicts its least recent way, and enters at
// MRU (Recency.Replace does both for an eviction).
func (l *PrivateLevel) access(block uint64, typ trace.AccessType) outcome {
	set := int(block & l.setMask)
	base := set * l.ways
	for w, fa := range l.addrs[base : base+l.ways] {
		if fa == block {
			i := base + w
			if typ == trace.Load || typ == trace.Store {
				l.flags[i] &^= framePrefetched
			}
			if typ == trace.Store || typ == trace.Writeback {
				l.flags[i] |= frameDirty
			}
			l.rec.Touch(set, w, 0)
			o := outcome{set: set, way: w, flags: outHit}
			l.observe(block, typ, o)
			return o
		}
	}
	if typ == trace.Writeback {
		o := outcome{set: set, flags: outBypassed}
		l.observe(block, typ, o)
		return o
	}
	o := outcome{set: set, way: l.hole(set, base)}
	if o.way < 0 {
		o.way = l.rec.Replace(set)
		i := base + o.way
		o.at, o.flags = l.addrs[i], outEvicted
		if l.flags[i]&frameDirty != 0 {
			o.flags |= outDirty
		}
	} else {
		l.rec.Touch(set, o.way, 0)
	}
	i := base + o.way
	l.addrs[i] = block
	fl := frameValid
	if typ == trace.Store {
		fl |= frameDirty
	}
	if typ == trace.Prefetch {
		fl |= framePrefetched
	}
	l.flags[i] = fl
	l.observe(block, typ, o)
	return o
}

// observe runs the build-tag assertions and the observer after an access.
// It inlines, so an unobserved level pays one nil check.
func (l *PrivateLevel) observe(block uint64, typ trace.AccessType, o outcome) {
	if verifyAsserts {
		l.assertSetWellFormed(o.set)
	}
	if l.obs != nil {
		l.notify(block, typ, o)
	}
}

// notify hands an access's outcome to the observer.
func (l *PrivateLevel) notify(block uint64, typ trace.AccessType, o outcome) {
	l.obs.OnLevelAccess(block, typ, o.result())
}

// frame returns the frame an access touched or filled.
func (l *PrivateLevel) frame(o outcome) Op { return Op(o.set*l.ways + o.way) }
