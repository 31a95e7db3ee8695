package cache

import (
	"testing"
	"testing/quick"

	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// TestHierarchyInclusionTendency: with LRU everywhere and no prefetcher,
// a block that hits in L1 was recently demanded, so it must also be
// present in L2 or have been evicted from L2 after L1 — this weaker
// mostly-inclusive property catches fill-path bookkeeping bugs.
func TestHierarchyFillPathConsistency(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		h := newSerial(geom(4, 2), geom(16, 4), New("llc", 64, 8, newLRUStub(8)), nil)
		var l1, l2 levelCount
		h.L1.SetObserver(&l1)
		h.L2.SetObserver(&l2)
		for i := 0; i < 3000; i++ {
			addr := rng.Uint64n(1<<14) << 3
			h.Demand(0x400+rng.Uint64n(16)*4, addr, rng.Intn(4) == 0, uint64(i))
			// A demand fill must leave the block in L1 immediately.
			if !h.L1.Contains(addr >> trace.BlockBits) {
				return false
			}
		}
		// Conservation: L1 misses == L2 accesses (no prefetcher, and only
		// demand traffic plus L1 writebacks reach L2).
		return l2.demands == l1.demandMisses
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyLatencyBounds: every demand access costs at least the L1
// latency and at most Mem plus the maximum possible in-flight wait.
func TestHierarchyLatencyBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		h := newSerial(geom(4, 2), geom(16, 4), New("llc", 64, 8, newLRUStub(8)), nil)
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64n(1<<13) * trace.BlockSize
			lat := h.Demand(0x400, addr, false, now)
			if lat < h.Lat.L1 || lat > h.Lat.Mem {
				return false
			}
			now += uint64(rng.Intn(3))
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
