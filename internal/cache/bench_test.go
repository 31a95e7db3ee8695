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

// filledCache builds an LLC-geometry cache with every frame valid, filled
// by a deterministic mix of loads, stores (dirty) and prefetches.
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

// BenchmarkHierarchyDemand measures one demand through the single-thread
// machine's levels (32 KB L1, 256 KB L2, 2 MB LLC, all LRU) with the
// stream prefetcher on: its capture through L1, L2 and the prefetcher,
// then its replay into the LLC, back to back on one goroutine. The
// reference stream is fixed: every eighth reference continues one
// sequential stream, the rest fall at random in a 4 MB footprint, and one
// in four is a store. A steady-state demand must not allocate.
func BenchmarkHierarchyDemand(b *testing.B) {
	priv := cache.NewPrivate(0, cache.Geometry{Size: 32 << 10, Ways: 8}, cache.Geometry{Size: 256 << 10, Ways: 8}, prefetch.NewStream())
	llc := cache.NewBySize("llc", 2<<20, 16, policy.NewLRU(2<<20/trace.BlockSize/16, 16))
	port := cache.NewPort(priv, llc, cache.DefaultLatencies())
	words := make([]uint64, 0, cache.MaxWords)
	rng := rand.New(rand.NewSource(1))
	refs := make([]trace.Record, 1<<16)
	seq := uint64(1 << 32)
	for i := range refs {
		r := trace.Record{PC: 0x400000 + uint64(rng.Intn(32))*4, IsWrite: rng.Intn(4) == 0}
		if i%8 == 0 {
			seq += trace.BlockSize
			r.Addr = seq
		} else {
			r.Addr = uint64(rng.Intn(4 << 20))
		}
		refs[i] = r
	}
	var now uint64
	i := 0
	step := func() {
		w := priv.Capture(&refs[i&(len(refs)-1)], words)
		lat, _ := port.Replay(cache.Op(w[0]), w, 1, now)
		now += uint64(lat)
		i++
	}
	if allocs := testing.AllocsPerRun(len(refs), step); allocs != 0 {
		b.Fatalf("a demand allocates %.2f times", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
}
