package cache_test

import (
	"math/rand"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/prefetch"
	"mpppb/internal/trace"
)

// Set-layout microbenchmarks: the way scan in Lookup and the victim search
// in fill are the loops the struct-of-arrays frame storage exists for, so
// they are measured in isolation here rather than only through the
// end-to-end numbers. Geometry matches the single-thread LLC (2048 sets,
// 16 ways).

const (
	benchSets = 2048
	benchWays = 16
)

// filledCache builds an LLC-geometry cache with every frame valid and a
// deterministic mix of dirty/prefetched flags.
func filledCache() *cache.Cache {
	c := cache.New("llc", benchSets, benchWays, policy.NewLRU(benchSets, benchWays))
	for set := 0; set < benchSets; set++ {
		for w := 0; w < benchWays; w++ {
			typ := trace.Load
			switch w % 3 {
			case 1:
				typ = trace.Store
			case 2:
				typ = trace.Prefetch
			}
			c.Access(cache.Access{
				PC:   0x400000 + uint64(w)*4,
				Addr: (uint64(w*benchSets + set)) << trace.BlockBits,
				Type: typ,
			})
		}
	}
	return c
}

// BenchmarkCacheLookup measures the tag-lane probe on a full cache,
// alternating hits across all ways with misses (which scan the whole set).
func BenchmarkCacheLookup(b *testing.B) {
	c := filledCache()
	b.ReportAllocs()
	b.ResetTimer()
	var waySink int
	for i := 0; i < b.N; i++ {
		set := i & (benchSets - 1)
		var block uint64
		if i&1 == 0 {
			block = uint64((i>>1)%benchWays*benchSets + set) // resident: hit
		} else {
			block = uint64((benchWays+1)*benchSets + set) // absent: full scan
		}
		_, way := c.Lookup(block)
		waySink += way
	}
	if waySink == -b.N {
		b.Fatal("every lookup missed")
	}
}

// BenchmarkVictimScan measures the miss path on a full cache: probe all
// ways, find no invalid frame, consult the policy, and replace the victim.
// Every access is a conflict miss, so each iteration runs the entire
// victim-search-and-fill sequence.
func BenchmarkVictimScan(b *testing.B) {
	c := filledCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := i & (benchSets - 1)
		// Walk disjoint tags per set so no access ever hits.
		block := uint64((benchWays+1+i/benchSets)*benchSets + set)
		c.Access(cache.Access{
			PC:   0x400000,
			Addr: block << trace.BlockBits,
			Type: trace.Load,
		})
	}
	if c.Stats.Hits != 0 {
		b.Fatalf("victim-scan benchmark hit %d times; tags not disjoint", c.Stats.Hits)
	}
}

// BenchmarkHierarchyDemand measures one Hierarchy.Demand through the
// single-thread machine's levels (32 KB L1, 256 KB L2, 2 MB LLC, all LRU)
// with the stream prefetcher on. The reference stream is fixed: every
// eighth reference continues one sequential stream, the rest fall at
// random in a 4 MB footprint, and one in four is a store. A steady-state
// Demand must not allocate.
func BenchmarkHierarchyDemand(b *testing.B) {
	lru := func(name string, size, ways int) *cache.Cache {
		return cache.NewBySize(name, size, ways, policy.NewLRU(size/trace.BlockSize/ways, ways))
	}
	h := &cache.Hierarchy{
		L1:  lru("l1d", 32<<10, 8),
		L2:  lru("l2", 256<<10, 8),
		LLC: lru("llc", 2<<20, 16),
		Pf:  prefetch.NewStream(),
		Lat: cache.DefaultLatencies(),
	}
	type ref struct {
		pc, addr uint64
		write    bool
	}
	rng := rand.New(rand.NewSource(1))
	refs := make([]ref, 1<<16)
	seq := uint64(1 << 32)
	for i := range refs {
		r := ref{pc: 0x400000 + uint64(rng.Intn(32))*4, write: rng.Intn(4) == 0}
		if i%8 == 0 {
			seq += trace.BlockSize
			r.addr = seq
		} else {
			r.addr = uint64(rng.Intn(4 << 20))
		}
		refs[i] = r
	}
	var now uint64
	i := 0
	step := func() {
		r := refs[i&(len(refs)-1)]
		now += uint64(h.Demand(r.pc, r.addr, r.write, now))
		i++
	}
	if allocs := testing.AllocsPerRun(len(refs), step); allocs != 0 {
		b.Fatalf("Hierarchy.Demand allocates %.2f times per call", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
}
