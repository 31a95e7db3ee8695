package cache

import (
	"testing"
	"testing/quick"

	"mpppb/internal/trace"
)

// lruStub is a minimal LRU for cache tests, independent of the policy
// package (which would create an import cycle in tests' package layout
// clarity; the real policies have their own tests).
type lruStub struct {
	ways  int
	clock uint64
	last  map[[2]int]uint64
}

func newLRUStub(ways int) *lruStub { return &lruStub{ways: ways, last: map[[2]int]uint64{}} }

func (l *lruStub) Name() string { return "lru-stub" }
func (l *lruStub) Hit(set, way int, _ Access) {
	l.clock++
	l.last[[2]int{set, way}] = l.clock
}
func (l *lruStub) Victim(set int, _ Access) (int, bool) {
	best, bestT := 0, ^uint64(0)
	for w := 0; w < l.ways; w++ {
		if t := l.last[[2]int{set, w}]; t < bestT {
			best, bestT = w, t
		}
	}
	return best, false
}
func (l *lruStub) Fill(set, way int, _ Access) {
	l.clock++
	l.last[[2]int{set, way}] = l.clock
}
func (l *lruStub) Evict(int, int, uint64) {}

// bypassAll declines every fill.
type bypassAll struct{ lruStub }

func (b *bypassAll) Victim(int, Access) (int, bool) { return 0, true }

func addr(block uint64) uint64 { return block << trace.BlockBits }

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ sets, ways int }{{0, 4}, {4, 0}, {3, 4}, {-1, 1}, {4, 256}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", bad.sets, bad.ways)
				}
			}()
			New("t", bad.sets, bad.ways, newLRUStub(bad.ways))
		}()
	}
}

func TestNewBySizeGeometry(t *testing.T) {
	c := NewBySize("l1", 32<<10, 8, newLRUStub(8))
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("32KB 8-way: got %dx%d, want 64x8", c.Sets(), c.Ways())
	}
	if c.SizeBytes() != 32<<10 {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestHitAfterFill(t *testing.T) {
	c := New("t", 4, 2, newLRUStub(2))
	a := Access{Addr: addr(5), Type: trace.Load}
	if r := c.Access(a); r.Hit {
		t.Fatal("first access hit an empty cache")
	}
	if r := c.Access(a); !r.Hit {
		t.Fatal("second access missed")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestSetIndexing(t *testing.T) {
	c := New("t", 4, 1, newLRUStub(1))
	// Blocks 0..3 map to distinct sets and must all fit in a 1-way cache.
	for b := uint64(0); b < 4; b++ {
		c.Access(Access{Addr: addr(b), Type: trace.Load})
	}
	for b := uint64(0); b < 4; b++ {
		if !c.Contains(b) {
			t.Fatalf("block %d evicted despite distinct sets", b)
		}
	}
	// Block 4 aliases block 0's set and evicts it.
	res := c.Access(Access{Addr: addr(4), Type: trace.Load})
	if !res.EvictedValid || res.EvictedAddr != 0 {
		t.Fatalf("expected eviction of block 0, got %+v", res)
	}
	if c.Contains(0) {
		t.Fatal("block 0 still present")
	}
}

func TestLRUEvictionOrderViaPolicy(t *testing.T) {
	c := New("t", 1, 2, newLRUStub(2))
	c.Access(Access{Addr: addr(0), Type: trace.Load})
	c.Access(Access{Addr: addr(4), Type: trace.Load})
	c.Access(Access{Addr: addr(0), Type: trace.Load}) // touch 0: 4 becomes LRU
	res := c.Access(Access{Addr: addr(8), Type: trace.Load})
	if !res.EvictedValid || res.EvictedAddr != 4 {
		t.Fatalf("want eviction of block 4, got %+v", res)
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	c := New("t", 1, 1, newLRUStub(1))
	c.Access(Access{Addr: addr(1), Type: trace.Store})
	res := c.Access(Access{Addr: addr(2), Type: trace.Load})
	if !res.EvictedDirty {
		t.Fatal("dirty block evicted without writeback flag")
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
	// Clean eviction has no writeback.
	res = c.Access(Access{Addr: addr(3), Type: trace.Load})
	if res.EvictedDirty {
		t.Fatal("clean block flagged dirty")
	}
}

func TestWritebackUpdatesButDoesNotAllocate(t *testing.T) {
	c := New("t", 2, 1, newLRUStub(1))
	// Writeback miss: no allocation.
	r := c.Access(Access{Addr: addr(2), Type: trace.Writeback})
	if r.Hit || !r.Bypassed {
		t.Fatalf("writeback miss result %+v", r)
	}
	if c.Contains(2) {
		t.Fatal("writeback allocated a block")
	}
	// Writeback hit: marks dirty.
	c.Access(Access{Addr: addr(2), Type: trace.Load})
	c.Access(Access{Addr: addr(2), Type: trace.Writeback})
	res := c.Access(Access{Addr: addr(4), Type: trace.Load}) // evict block 2
	if !res.EvictedDirty {
		t.Fatal("writeback hit did not dirty the block")
	}
}

func TestBypassLeavesSetUntouched(t *testing.T) {
	pol := &bypassAll{}
	pol.ways = 1
	pol.last = map[[2]int]uint64{}
	c := New("t", 1, 1, pol)
	c.Access(Access{Addr: addr(0), Type: trace.Load}) // fills invalid frame (no Victim call)
	res := c.Access(Access{Addr: addr(1), Type: trace.Load})
	if !res.Bypassed {
		t.Fatal("fill was not bypassed")
	}
	if !c.Contains(0) || c.Contains(1) {
		t.Fatal("bypass modified cache contents")
	}
	if c.Stats.Bypasses != 1 {
		t.Fatalf("bypasses = %d", c.Stats.Bypasses)
	}
}

func TestDemandVsPrefetchStats(t *testing.T) {
	c := New("t", 4, 2, newLRUStub(2))
	c.Access(Access{Addr: addr(1), Type: trace.Prefetch})
	c.Access(Access{Addr: addr(1), Type: trace.Load})
	if c.Stats.PrefetchAccesses != 1 || c.Stats.PrefetchMisses != 1 || c.Stats.PrefetchFills != 1 {
		t.Fatalf("prefetch stats: %+v", c.Stats)
	}
	if c.Stats.DemandAccesses != 1 || c.Stats.DemandHits != 1 {
		t.Fatalf("demand stats: %+v", c.Stats)
	}
}

func TestPrefetchedFlagClearedByDemand(t *testing.T) {
	c := New("t", 4, 2, newLRUStub(2))
	r := c.Access(Access{Addr: addr(1), Type: trace.Prefetch})
	if !c.IsPrefetchedAt(r.Set, r.Way) {
		t.Fatal("prefetched flag not set")
	}
	r2 := c.Access(Access{Addr: addr(1), Type: trace.Load})
	if c.IsPrefetchedAt(r2.Set, r2.Way) {
		t.Fatal("prefetched flag survived demand hit")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("t", 2, 2, newLRUStub(2))
	c.Access(Access{Addr: addr(2), Type: trace.Store})
	present, dirty := c.Invalidate(2)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(2) {
		t.Fatal("block present after invalidate")
	}
	present, _ = c.Invalidate(2)
	if present {
		t.Fatal("second invalidate found the block")
	}
}

func TestReadyAtRoundTrip(t *testing.T) {
	c := New("t", 2, 2, newLRUStub(2))
	r := c.Access(Access{Addr: addr(3), Type: trace.Load, Now: 100})
	if got := c.ReadyAt(r.Set, r.Way); got != 100 {
		t.Fatalf("fill ReadyAt = %d, want Now=100", got)
	}
	c.SetReadyAt(r.Set, r.Way, 500)
	r2 := c.Access(Access{Addr: addr(3), Type: trace.Load, Now: 200})
	if r2.ReadyAt != 500 {
		t.Fatalf("hit ReadyAt = %d, want 500", r2.ReadyAt)
	}
}

func TestResetAndResetStats(t *testing.T) {
	c := New("t", 2, 2, newLRUStub(2))
	c.Access(Access{Addr: addr(1), Type: trace.Load})
	c.ResetStats()
	if c.Stats.Accesses != 0 {
		t.Fatal("ResetStats left counters")
	}
	if !c.Contains(1) {
		t.Fatal("ResetStats dropped contents")
	}
	c.Reset()
	if c.Contains(1) {
		t.Fatal("Reset kept contents")
	}
}

func TestAccessHelpers(t *testing.T) {
	a := Access{Addr: 0x12345, Type: trace.Store}
	if a.Block() != 0x12345>>trace.BlockBits {
		t.Fatal("Block mismatch")
	}
	if a.Offset() != 0x12345&(trace.BlockSize-1) {
		t.Fatal("Offset mismatch")
	}
	if !a.IsDemand() {
		t.Fatal("store not demand")
	}
	if (Access{Type: trace.Prefetch}).IsDemand() {
		t.Fatal("prefetch is demand")
	}
}

// Property: the number of distinct resident blocks never exceeds capacity,
// and contents always reflect the most recent fills per set.
func TestOccupancyInvariant(t *testing.T) {
	if err := quick.Check(func(blocks []uint16) bool {
		c := New("t", 4, 2, newLRUStub(2))
		for _, b := range blocks {
			c.Access(Access{Addr: addr(uint64(b)), Type: trace.Load})
		}
		distinct := map[uint16]bool{}
		for _, b := range blocks {
			distinct[b] = true
		}
		resident := 0
		for b := range distinct {
			if c.Contains(uint64(b)) {
				resident++
			}
		}
		return resident <= 8
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses == accesses, for any access sequence.
func TestStatsBalance(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		c := New("t", 2, 2, newLRUStub(2))
		for _, op := range ops {
			typ := trace.Load
			if op&1 == 1 {
				typ = trace.Store
			}
			c.Access(Access{Addr: addr(uint64(op % 16)), Type: typ})
		}
		return c.Stats.Hits+c.Stats.Misses == c.Stats.Accesses
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyVictimRangeChecked(t *testing.T) {
	bad := &badVictim{}
	bad.ways = 2
	bad.last = map[[2]int]uint64{}
	c := New("t", 1, 2, bad)
	c.Access(Access{Addr: addr(0), Type: trace.Load})
	c.Access(Access{Addr: addr(1), Type: trace.Load})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range victim did not panic")
		}
	}()
	c.Access(Access{Addr: addr(2), Type: trace.Load})
}

type badVictim struct{ lruStub }

func (b *badVictim) Victim(int, Access) (int, bool) { return 99, false }

// holeGuard is lruStub with a check on the fill protocol: Victim must
// only be consulted for a set that has no invalid frame.
type holeGuard struct {
	lruStub
	t *testing.T
	c *Cache
}

func (g *holeGuard) Victim(set int, a Access) (int, bool) {
	for w := 0; w < g.c.ways; w++ {
		if g.c.flags[set*g.c.ways+w]&frameValid == 0 {
			g.t.Fatalf("Victim consulted for set %d with invalid way %d\n%s", set, w, g.c.DumpSet(set))
		}
	}
	return g.lruStub.Victim(set, a)
}

// TestHoleCountTracksInvalidFrames drives random accesses of every type,
// invalidations of resident blocks and an occasional Reset through caches
// of several shapes. After every operation each set's hole count must
// equal that set's number of invalid frames, and no miss may reach the
// policy's Victim while its set still has an invalid frame. Sets fill at
// different rates, so some evict while others still have holes.
func TestHoleCountTracksInvalidFrames(t *testing.T) {
	types := []trace.AccessType{trace.Load, trace.Load, trace.Store, trace.Prefetch, trace.Writeback}
	for _, geo := range []struct{ sets, ways int }{{1, 1}, {1, 4}, {4, 3}, {8, 8}, {16, 16}} {
		g := &holeGuard{lruStub: *newLRUStub(geo.ways), t: t}
		c := New("t", geo.sets, geo.ways, g)
		g.c = c
		rng := uint64(geo.sets*131 + geo.ways)
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		capacity := geo.sets * geo.ways
		for step := 0; step < 6000; step++ {
			switch op := next(100); {
			case step == 3000:
				c.Reset()
			case op < 8:
				if b, ok := c.BlockAddrAt(next(geo.sets), next(geo.ways)); ok {
					c.Invalidate(b)
				}
			default:
				c.Access(Access{Addr: addr(uint64(next(3 * capacity))), Type: types[next(len(types))]})
			}
			for set := 0; set < geo.sets; set++ {
				invalid := 0
				for _, f := range c.flags[set*geo.ways : (set+1)*geo.ways] {
					if f&frameValid == 0 {
						invalid++
					}
				}
				if int(c.holes[set]) != invalid {
					t.Fatalf("%dx%d step %d: set %d has hole count %d, %d invalid frames",
						geo.sets, geo.ways, step, set, c.holes[set], invalid)
				}
			}
		}
	}
}
