package cache_test

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// privateWays are the associativities FuzzPrivateLevelMatchesCache
// draws: the powers of two up to the LLC's 16, and 12, which is not one
// and leaves four ways past the last whole rank word.
var privateWays = []int{1, 2, 4, 8, 16, 12}

// FuzzPrivateLevelMatchesCache drives a private level and a Cache under
// policy.LRU, the pair the private levels replace, in lockstep. The first
// byte picks the ways and the sets (1 to 8); each following pair of bytes
// is one access, its type in the low two bits of the first and its block
// from the rest, over three times as many blocks as frames so sets fill,
// evict and refill. After every access the two must agree on the hit, the
// way, the victim and its dirty bit, and on every rank of the touched set.
func FuzzPrivateLevelMatchesCache(f *testing.F) {
	for g := range privateWays {
		seed := []byte{byte(g) | 3<<4}
		for i := 0; i < 400; i++ {
			seed = append(seed, byte(i*37+g), byte(i*11))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways, sets := privateWays[int(data[0]&15)%len(privateWays)], 1<<(data[0]>>4&3)
		l := cache.NewPrivateLevel("l2", sets, ways)
		lru := policy.NewLRU(sets, ways)
		c := cache.New("ref", sets, ways, lru)
		blocks := uint64(3 * sets * ways)
		for i := 1; i+1 < len(data); i += 2 {
			typ := trace.AccessType(data[i] & 3)
			block := (uint64(data[i])>>2 | uint64(data[i+1])<<6) % blocks
			got := l.Access(block, typ)
			want := c.Access(cache.Access{Addr: block << trace.BlockBits, Type: typ})
			if got.Hit != want.Hit || got.Bypassed != want.Bypassed || got.Set != want.Set ||
				(!want.Bypassed && got.Way != want.Way) || got.EvictedValid != want.EvictedValid ||
				got.EvictedAddr != want.EvictedAddr || got.EvictedDirty != want.EvictedDirty {
				t.Fatalf("%dx%d access %d (%v of block %d): private level %+v, cache %+v",
					sets, ways, i/2, typ, block, got, want)
			}
			for w := 0; w < ways; w++ {
				if got, want := l.Rank(want.Set, w), lru.Rank(want.Set, w); got != want {
					t.Fatalf("%dx%d access %d (%v of block %d): way %d at rank %d, cache's LRU rank %d",
						sets, ways, i/2, typ, block, w, got, want)
				}
			}
		}
	})
}
