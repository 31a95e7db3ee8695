package cache

import (
	"testing"

	"mpppb/internal/trace"
)

// serial runs one core's private and shared halves back to back on one
// goroutine: each record is captured into a block of its own and replayed
// at once, the way a pipelined machine meets it.
type serial struct {
	L1, L2, LLC *Cache
	Lat         Latencies
	priv        *Private
	port        *Port
	words       []uint64
}

func newSerial(l1, l2, llc *Cache, pf Prefetcher) *serial {
	priv := NewPrivate(0, l1, l2, pf)
	lat := DefaultLatencies()
	return &serial{L1: l1, L2: l2, LLC: llc, Lat: lat, priv: priv, port: NewPort(priv, llc, lat), words: make([]uint64, 0, MaxWords)}
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

// buildTestHierarchy wires a small three-level hierarchy with LRU stubs.
func buildTestHierarchy(pf Prefetcher) *serial {
	mk := func(name string, sets, ways int) *Cache {
		return New(name, sets, ways, newLRUStub(ways))
	}
	return newSerial(
		mk("l1", 8, 2),   // 1KB
		mk("l2", 32, 4),  // 8KB
		mk("llc", 64, 8), // 32KB
		pf)
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
	h.Demand(0x400, 0x999000, false, 0) // trigger
	if !h.L2.Contains(target >> trace.BlockBits) {
		t.Fatal("prefetch did not fill L2")
	}
	if !h.LLC.Contains(target >> trace.BlockBits) {
		t.Fatal("prefetch did not fill LLC")
	}
	if h.L1.Contains(target >> trace.BlockBits) {
		t.Fatal("prefetch filled L1 (should stop at L2)")
	}
	if h.L2.Stats.PrefetchAccesses != 1 {
		t.Fatalf("prefetches issued to L2 = %d", h.L2.Stats.PrefetchAccesses)
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
	// Dirty a block, then evict it from L1 by filling the set; its L2 copy
	// absorbs the writeback (present), so nothing goes below L2.
	h.Demand(0x400, 0, true, 0)
	h.Demand(0x400, 8*trace.BlockSize*1, false, 0)
	h.Demand(0x400, 8*trace.BlockSize*2, false, 0) // evicts dirty block 0 from 2-way L1
	if h.L2.Stats.Hits != 1 || h.LLC.Stats.Accesses != 3 {
		t.Fatalf("the writeback hit L2 %d times and the LLC saw %d accesses, want 1 and 3 (the demands)",
			h.L2.Stats.Hits, h.LLC.Stats.Accesses)
	}
	// The L2 copy must now be dirty: evicting it from L2 sends it to the
	// LLC, which holds a copy, so still no memory traffic.
	if _, dirty := h.L2.Invalidate(0); !dirty {
		t.Fatal("L2 copy not marked dirty by the writeback")
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
