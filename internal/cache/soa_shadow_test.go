// The SoA frame layout keeps per-frame fields in parallel slices with a
// tag-lane sentinel for invalid frames (see cache.go). This file checks
// that layout against a deliberately naive array-of-structs shadow: both
// models replay the same randomized access/invalidate sequences under
// their own deterministic policy instances, and every observable frame
// field must agree after every operation. A bookkeeping slip in the split
// storage — a stale tag after invalidate, a flags byte out of sync with
// the address lane, a readyAt written to the wrong row — diverges the
// shadow immediately.
package cache_test

import (
	"math/rand"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// shadowFrame is the naive AoS frame: one struct per way, unpacked bools.
type shadowFrame struct {
	addr       uint64
	readyAt    uint64
	valid      bool
	dirty      bool
	prefetched bool
}

// shadowCache is an array-of-structs reference model of cache.Cache's
// state evolution, driving its own policy instance through the same
// hook protocol.
type shadowCache struct {
	sets, ways int
	frames     [][]shadowFrame
	pol        cache.ReplacementPolicy
}

func newShadow(sets, ways int, pol cache.ReplacementPolicy) *shadowCache {
	s := &shadowCache{sets: sets, ways: ways, pol: pol}
	s.frames = make([][]shadowFrame, sets)
	for i := range s.frames {
		s.frames[i] = make([]shadowFrame, ways)
	}
	return s
}

// access returns the way a miss filled, or -1 for a hit or no fill.
func (s *shadowCache) access(a cache.Access) int {
	block := a.Block()
	set := int(block) & (s.sets - 1)
	fr := s.frames[set]
	for w := range fr {
		if fr[w].valid && fr[w].addr == block {
			if a.IsDemand() {
				fr[w].prefetched = false
			}
			if a.Type == trace.Store || a.Type == trace.Writeback {
				fr[w].dirty = true
			}
			s.pol.Hit(set, w, a)
			return -1
		}
	}
	if a.Type == trace.Writeback {
		return -1
	}
	way := -1
	for w := range fr {
		if !fr[w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		victim, bypass := s.pol.Victim(set, a)
		if bypass {
			return -1
		}
		way = victim
		s.pol.Evict(set, way, fr[way].addr)
	}
	fr[way] = shadowFrame{
		addr:       block,
		readyAt:    a.Now,
		valid:      true,
		dirty:      a.Type == trace.Store,
		prefetched: a.Type == trace.Prefetch,
	}
	s.pol.Fill(set, way, a)
	return way
}

func (s *shadowCache) invalidate(block uint64) {
	set := int(block) & (s.sets - 1)
	fr := s.frames[set]
	for w := range fr {
		if fr[w].valid && fr[w].addr == block {
			s.pol.Evict(set, w, fr[w].addr)
			fr[w] = shadowFrame{}
			return
		}
	}
}

// compare checks every frame of every set against the production cache's
// accessors.
func (s *shadowCache) compare(t *testing.T, c *cache.Cache, step int) {
	t.Helper()
	for set := 0; set < s.sets; set++ {
		for w := 0; w < s.ways; w++ {
			sf := s.frames[set][w]
			addr, valid := c.BlockAddrAt(set, w)
			if valid != sf.valid {
				t.Fatalf("step %d: set %d way %d valid=%v, shadow %v\n%s", step, set, w, valid, sf.valid, c.DumpSet(set))
			}
			if !valid {
				continue
			}
			if addr != sf.addr {
				t.Fatalf("step %d: set %d way %d addr %#x, shadow %#x\n%s", step, set, w, addr, sf.addr, c.DumpSet(set))
			}
			if got := c.IsPrefetchedAt(set, w); got != sf.prefetched {
				t.Fatalf("step %d: set %d way %d prefetched=%v, shadow %v", step, set, w, got, sf.prefetched)
			}
			if got := c.ReadyAt(set, w); got != sf.readyAt {
				t.Fatalf("step %d: set %d way %d readyAt=%d, shadow %d", step, set, w, got, sf.readyAt)
			}
		}
	}
}

// TestSoAMatchesAoSShadow replays randomized access sequences — all four
// access types, a skewed address distribution that forces both conflict
// evictions and invalid-frame fills, and interleaved invalidations —
// through the production SoA cache and the AoS shadow, comparing complete
// frame state as it goes. Dirty bits are compared through eviction results
// (Invalidate reports dirtiness) rather than a direct accessor, via the
// invalidation steps.
func TestSoAMatchesAoSShadow(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		replayShadow(t, 16, 4, seed, false)
	}
}

// TestFillTakesLowestHole punches holes mid-set: one step in three
// invalidates the block of a random frame, so misses keep finding sets with
// invalid frames between valid ones. Every fill must land in the lowest
// invalid way, the frame the shadow's scan over valid bits chooses.
func TestFillTakesLowestHole(t *testing.T) {
	for _, ways := range []int{1, 3, 8, 16} {
		for seed := int64(0); seed < 3; seed++ {
			replayShadow(t, 8, ways, seed, true)
		}
	}
}

// replayShadow drives the production cache and the shadow through one
// random sequence. With holes, invalidations are frequent and aimed at
// resident blocks.
func replayShadow(t *testing.T, sets, ways int, seed int64, holes bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cache.New("soa", sets, ways, policy.NewLRU(sets, ways))
	sh := newShadow(sets, ways, policy.NewLRU(sets, ways))

	types := []trace.AccessType{
		trace.Load, trace.Load, trace.Load, trace.Store, trace.Prefetch, trace.Writeback,
	}
	invalidateOneIn := 20
	if holes {
		invalidateOneIn = 3
	}
	for step := 0; step < 4000; step++ {
		if rng.Intn(invalidateOneIn) == 0 {
			// Invalidate a random block from the reachable footprint, or
			// with holes the block of a random frame; dirtiness must agree
			// between the two models.
			block := uint64(rng.Intn(sets * ways * 3))
			if holes {
				if b, ok := c.BlockAddrAt(rng.Intn(sets), rng.Intn(ways)); ok {
					block = b
				}
			}
			present, dirty := c.Invalidate(block)
			wantPresent, wantDirty := false, false
			set := int(block) & (sets - 1)
			for w := 0; w < ways; w++ {
				if f := sh.frames[set][w]; f.valid && f.addr == block {
					wantPresent, wantDirty = true, f.dirty
				}
			}
			if present != wantPresent || dirty != wantDirty {
				t.Fatalf("seed %d step %d: Invalidate(%#x) = (%v,%v), shadow (%v,%v)",
					seed, step, block, present, dirty, wantPresent, wantDirty)
			}
			sh.invalidate(block)
		} else {
			a := cache.Access{
				PC:   0x400000 + uint64(rng.Intn(64))*4,
				Addr: uint64(rng.Intn(sets*ways*3))*trace.BlockSize + uint64(rng.Intn(trace.BlockSize)),
				Type: types[rng.Intn(len(types))],
				Now:  uint64(step),
			}
			r := c.Access(a)
			if way := sh.access(a); !r.Hit && !r.Bypassed && r.Way != way {
				t.Fatalf("seed %d step %d: fill into way %d, shadow way %d\n%s",
					seed, step, r.Way, way, c.DumpSet(r.Set))
			}
		}
		if step%7 == 0 {
			sh.compare(t, c, step)
		}
	}
	sh.compare(t, c, 4000)
}
