// The SoA frame layout keeps per-frame fields in parallel slices with a
// tag-lane sentinel for invalid frames (see cache.go). This file checks
// that layout against a deliberately naive array-of-structs shadow: both
// models replay the same randomized access sequences, with an occasional
// Reset, under their own deterministic policy instances, and every
// observable frame field must agree after every operation. A bookkeeping
// slip in the split storage — a stale tag after Reset, a flags byte out of
// sync with the address lane, a readyAt written to the wrong row —
// diverges the shadow immediately.
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
	addr    uint64
	readyAt uint64
	valid   bool
	dirty   bool
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
		addr:    block,
		readyAt: a.Now,
		valid:   true,
		dirty:   a.Type == trace.Store,
	}
	s.pol.Fill(set, way, a)
	return way
}

// reset empties every frame, as Cache.Reset does; like it, it leaves the
// policy's state alone.
func (s *shadowCache) reset() {
	for _, fr := range s.frames {
		clear(fr)
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
			if got := c.IsDirtyAt(set, w); got != sf.dirty {
				t.Fatalf("step %d: set %d way %d dirty=%v, shadow %v\n%s", step, set, w, got, sf.dirty, c.DumpSet(set))
			}
			if got := c.ReadyAt(set, w); got != sf.readyAt {
				t.Fatalf("step %d: set %d way %d readyAt=%d, shadow %d", step, set, w, got, sf.readyAt)
			}
		}
	}
}

// TestSoAMatchesAoSShadow replays randomized access sequences — all four
// access types, a skewed address distribution that forces both conflict
// evictions and invalid-frame fills, and a rare Reset — through the
// production SoA cache and the AoS shadow, comparing complete frame state,
// dirty bits included, as it goes.
func TestSoAMatchesAoSShadow(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		replayShadow(t, 16, 4, seed, 1000)
	}
}

// TestFillTakesLowestHole resets both models one step in 60 on average, so
// misses keep finding sets with invalid frames. Every fill must land in
// the lowest invalid way, the frame the shadow's scan over valid bits
// chooses. Only New and Reset make frames invalid, so a set's invalid
// frames are always its highest ways.
func TestFillTakesLowestHole(t *testing.T) {
	for _, ways := range []int{1, 3, 8, 16} {
		for seed := int64(0); seed < 3; seed++ {
			replayShadow(t, 8, ways, seed, 60)
		}
	}
}

// replayShadow drives the production cache and the shadow through one
// random sequence, resetting both one step in resetOneIn on average.
func replayShadow(t *testing.T, sets, ways int, seed int64, resetOneIn int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cache.New("soa", sets, ways, policy.NewLRU(sets, ways))
	sh := newShadow(sets, ways, policy.NewLRU(sets, ways))

	types := []trace.AccessType{
		trace.Load, trace.Load, trace.Load, trace.Store, trace.Prefetch, trace.Writeback,
	}
	for step := 0; step < 4000; step++ {
		if rng.Intn(resetOneIn) == 0 {
			c.Reset()
			sh.reset()
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
