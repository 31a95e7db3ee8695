package cache

import (
	"strings"
	"testing"

	"mpppb/internal/trace"
)

// serial runs one core's private and shared halves back to back on one
// goroutine: each record is captured into a block of its own and replayed
// at once, the way a pipelined machine meets it.
type serial struct {
	L1, L2 *PrivateLevel
	LLC    *Cache
	Lat    Latencies
	priv   *Private
	port   *Port
	words  []uint64
}

// geom returns the geometry of a level of sets sets of ways ways.
func geom(sets, ways int) Geometry { return Geometry{Size: sets * ways * trace.BlockSize, Ways: ways} }

func newSerial(l1, l2 Geometry, llc *Cache, pf Prefetcher) *serial {
	priv := NewPrivate(0, l1, l2, pf)
	lat := DefaultLatencies()
	s := &serial{LLC: llc, Lat: lat, priv: priv, port: NewPort(priv, llc, lat), words: make([]uint64, 0, MaxWords)}
	s.L1, s.L2 = priv.Levels()
	return s
}

// Demand performs a demand load or store issued at cycle now and returns
// its latency in cycles.
func (s *serial) Demand(pc, addr uint64, isWrite bool, now uint64) int {
	w := s.priv.Capture(&trace.Record{PC: pc, Addr: addr, IsWrite: isWrite}, s.words[:0])
	lat, next := s.port.Replay(Op(w[0]), w, 1, now)
	if next != len(w) {
		panic("replay read a different number of words than the capture wrote")
	}
	return lat
}

// buildTestHierarchy wires a small three-level hierarchy, the LLC under an
// LRU stub.
func buildTestHierarchy(pf Prefetcher) *serial {
	return newSerial(
		geom(8, 2),                       // 1KB
		geom(32, 4),                      // 8KB
		New("llc", 64, 8, newLRUStub(8)), // 32KB
		pf)
}

// levelCount counts a private level's accesses by type and outcome.
type levelCount struct {
	demands, demandMisses, prefetches, writebackHits int
}

func (c *levelCount) OnLevelAccess(_ uint64, typ trace.AccessType, r Result) {
	switch {
	case typ == trace.Load || typ == trace.Store:
		c.demands++
		if !r.Hit {
			c.demandMisses++
		}
	case typ == trace.Prefetch:
		c.prefetches++
	case r.Hit:
		c.writebackHits++
	}
}

func TestDemandLatenciesByLevel(t *testing.T) {
	h := buildTestHierarchy(nil)
	lat := h.Lat
	// Cold: miss everywhere.
	if got := h.Demand(0x400, 0x10000, false, 0); got != lat.Mem {
		t.Fatalf("cold access latency %d, want %d", got, lat.Mem)
	}
	// Immediately again: L1 hit, but the line is still in flight
	// (MSHR merge) so the latency is the remaining fill time.
	if got := h.Demand(0x400, 0x10000, false, 0); got != lat.Mem {
		t.Fatalf("in-flight L1 hit latency %d, want %d", got, lat.Mem)
	}
	// After the fill completes: plain L1 hit.
	if got := h.Demand(0x400, 0x10000, false, 1000); got != lat.L1 {
		t.Fatalf("warm L1 hit latency %d, want %d", got, lat.L1)
	}
	// Evict from L1 by filling its set (same L1 set = same low bits), the
	// block still sits in L2.
	for i := uint64(1); i <= 2; i++ {
		h.Demand(0x400, 0x10000+i*8*trace.BlockSize, false, 2000)
	}
	if got := h.Demand(0x400, 0x10000, false, 5000); got != lat.L2 {
		t.Fatalf("L2 hit latency %d, want %d", got, lat.L2)
	}
}

func TestLLCHitLatency(t *testing.T) {
	h := buildTestHierarchy(nil)
	h.Demand(0x400, 0, false, 0)
	// Evict block 0 from both L1 (2 ways) and L2 (4 ways) with aliasing
	// addresses that share their sets but not the LLC's.
	for i := uint64(1); i <= 6; i++ {
		h.Demand(0x400, i*32*8*trace.BlockSize, false, 0)
	}
	if !h.LLC.Contains(0) {
		t.Skip("victim selection evicted block 0 from LLC; geometry too small")
	}
	if h.L2.Contains(0) {
		t.Fatal("block 0 still in L2; test setup wrong")
	}
	if got := h.Demand(0x400, 0, false, 10000); got != h.Lat.LLC {
		t.Fatalf("LLC hit latency %d, want %d", got, h.Lat.LLC)
	}
}

// fixedPrefetcher returns a constant prefetch list once.
type fixedPrefetcher struct {
	addrs []uint64
	fired bool
}

func (f *fixedPrefetcher) OnL1Miss(pc, addr uint64) []uint64 {
	if f.fired {
		return nil
	}
	f.fired = true
	return f.addrs
}

func TestPrefetchFillsL2AndLLCWithFakePC(t *testing.T) {
	target := uint64(0x40000)
	h := buildTestHierarchy(&fixedPrefetcher{addrs: []uint64{target}})
	var l2 levelCount
	h.L2.SetObserver(&l2)
	h.Demand(0x400, 0x999000, false, 0) // trigger
	if l2.prefetches != 1 {
		t.Fatalf("prefetches issued to L2 = %d", l2.prefetches)
	}
	if !h.L2.Contains(target >> trace.BlockBits) {
		t.Fatal("prefetch did not fill L2")
	}
	if !h.LLC.Contains(target >> trace.BlockBits) {
		t.Fatal("prefetch did not fill LLC")
	}
	if h.L1.Contains(target >> trace.BlockBits) {
		t.Fatal("prefetch filled L1 (should stop at L2)")
	}
	if set, way := h.L2.Lookup(target >> trace.BlockBits); !h.L2.IsPrefetchedAt(set, way) {
		t.Fatal("the prefetch's L2 frame is not marked prefetched")
	}
	if h.LLC.Stats.PrefetchFills != 1 {
		t.Fatalf("LLC prefetch fills = %d", h.LLC.Stats.PrefetchFills)
	}
}

func TestLatePrefetchPaysRemainingLatency(t *testing.T) {
	target := uint64(0x40000)
	h := buildTestHierarchy(&fixedPrefetcher{addrs: []uint64{target}})
	h.Demand(0x400, 0x999000, false, 0) // prefetch issued at cycle 0
	// Demand the prefetched block at cycle 100: remaining = 240-100 = 140.
	got := h.Demand(0x400, target, false, 100)
	if got != h.Lat.Mem-100 {
		t.Fatalf("late prefetch latency %d, want %d", got, h.Lat.Mem-100)
	}
	// Long after arrival: ordinary L2 hit.
	got = h.Demand(0x401, target+8, false, 10000)
	if got != h.Lat.L1 && got != h.Lat.L2 {
		t.Fatalf("timely prefetched hit latency %d", got)
	}
}

func TestWritebackPathToMemory(t *testing.T) {
	h := buildTestHierarchy(nil)
	var l2 levelCount
	h.L2.SetObserver(&l2)
	// Dirty a block, then evict it from L1 by filling the set; its L2 copy
	// absorbs the writeback (present), so nothing goes below L2.
	h.Demand(0x400, 0, true, 0)
	h.Demand(0x400, 8*trace.BlockSize*1, false, 0)
	h.Demand(0x400, 8*trace.BlockSize*2, false, 0) // evicts dirty block 0 from 2-way L1
	if l2.writebackHits != 1 || h.LLC.Stats.Accesses != 3 {
		t.Fatalf("the writeback hit L2 %d times and the LLC saw %d accesses, want 1 and 3 (the demands)",
			l2.writebackHits, h.LLC.Stats.Accesses)
	}
	// The L2 copy must be dirty: evicting it from L2 sends it to the LLC,
	// which holds a copy, so still no memory traffic.
	if set, way := h.L2.Lookup(0); way < 0 || h.L2.flags[set*h.L2.ways+way]&frameDirty == 0 {
		t.Fatal("L2 copy not marked dirty")
	}
}

func TestStoreMissAllocates(t *testing.T) {
	h := buildTestHierarchy(nil)
	h.Demand(0x400, 0x5000, true, 0)
	if !h.L1.Contains(0x5000 >> trace.BlockBits) {
		t.Fatal("store miss did not allocate in L1 (write-allocate)")
	}
}

// TestPrefetchHitInLLCArrivesAtLLCLatency: a prefetch that hits the LLC
// fills L2 an LLC latency later, and a demand that catches it in flight
// waits only for the rest of that.
func TestPrefetchHitInLLCArrivesAtLLCLatency(t *testing.T) {
	pf := &fixedPrefetcher{fired: true}
	h := buildTestHierarchy(pf)
	const target = 4096 // L1 set 0, L2 set 0, LLC set 0
	h.Demand(0x400, addr(target), false, 0)
	// Four blocks that share target's L1 and L2 sets but not its LLC set
	// push it out of both private levels.
	for k := uint64(0); k < 4; k++ {
		h.Demand(0x400, addr(target+32+64*k), false, 0)
	}
	if h.L2.Contains(target) || !h.LLC.Contains(target) {
		t.Fatal("target not in the LLC alone; test setup wrong")
	}
	pf.addrs, pf.fired = []uint64{addr(target)}, false
	h.Demand(0x400, addr(1), false, 1000) // an L1 miss that prefetches target
	if got, want := h.Demand(0x400, addr(target), false, 1010), 1000+h.Lat.LLC-1010; got != want {
		t.Fatalf("demand on an in-flight LLC-hit prefetch took %d cycles, want %d", got, want)
	}
}

// TestNewPrivateValidation: NewPrivate refuses, by message, every
// geometry a Cache refuses and every level with more frames than an Op
// can name, and builds the paper's levels.
func TestNewPrivateValidation(t *testing.T) {
	ok := geom(64, 8)
	for _, bad := range []struct {
		name   string
		l1, l2 Geometry
		msg    string
	}{
		{"zero size", Geometry{0, 8}, ok, "non-positive geometry"},
		{"zero ways", Geometry{4096, 0}, ok, "not divisible"},
		{"size not whole sets", Geometry{100 * trace.BlockSize, 8}, ok, "not divisible"},
		{"sets not a power of two", geom(3, 8), ok, "not a power of two"},
		{"too many ways", ok, geom(1, 256), "exceed the limit of 255"},
		{"too many L1 frames", geom(1<<18, 8), ok, "a capture can name"},
		{"too many L2 frames", ok, geom(1<<19, 8), "a capture can name"},
	} {
		t.Run(bad.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, bad.msg) {
					t.Errorf("NewPrivate(%+v, %+v) panicked with %q, want a message containing %q", bad.l1, bad.l2, msg, bad.msg)
				}
			}()
			NewPrivate(0, bad.l1, bad.l2, nil)
		})
	}
	l1, l2 := NewPrivate(0, Geometry{32 << 10, 8}, Geometry{256 << 10, 8}, nil).Levels()
	if l1.Name() != "l1d" || l1.Sets() != 64 || l1.Ways() != 8 || l2.Name() != "l2" || l2.Sets() != 512 || l2.Ways() != 8 {
		t.Fatalf("paper levels: %s %dx%d and %s %dx%d", l1.Name(), l1.Sets(), l1.Ways(), l2.Name(), l2.Sets(), l2.Ways())
	}
}
