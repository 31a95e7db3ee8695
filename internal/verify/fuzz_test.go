package verify

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// FuzzCacheOps decodes the fuzz input as a program of cache operations —
// three bytes per op: opcode/block-high, block-low, PC/core — and replays
// it against checked caches (true LRU and the full MPPPB predictor). The
// checkers' default Fail panics, so any divergence between the optimized
// fast path and the reference models is a crasher the fuzzer minimizes.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{0x20, 0x00, 0x00, 0xa0, 0x00, 0x01, 0xc0, 0x00, 0x02, 0xe0, 0x00, 0x03})
	// A run long enough to fill sets and trigger evictions on both caches.
	seed := make([]byte, 0, 3*96)
	for i := 0; i < 96; i++ {
		seed = append(seed, byte(i*5), byte(i*13), byte(i*7))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		lru := cache.New("l1", 8, 4, policy.NewLRU(8, 4))
		klru := Attach(lru)
		// 16 ways: the paper's placement positions assume the 16-way LLC.
		mp := cache.New("llc", 64, 16, core.NewMPPPB(64, 16, core.SingleThreadParams()))
		kmp := Attach(mp)

		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] >> 5
			block := uint64(data[i]&0x1f)<<8 | uint64(data[i+1])
			a := cache.Access{
				PC:   0x400000 + uint64(data[i+2]>>2)*4,
				Addr: block * trace.BlockSize,
				Core: int(data[i+2] & 3),
			}
			switch op {
			case 5:
				a.Type = trace.Store
			case 6:
				a.Type = trace.Prefetch
			default:
				a.Type = trace.Load
			}
			if op == 4 {
				a.Type = trace.Writeback
			}
			lru.Access(a)
			mp.Access(a)
		}
		klru.Finish()
		kmp.Finish()
		if klru.Divergences() != 0 || kmp.Divergences() != 0 {
			t.Fatalf("divergences: lru=%d mpppb=%d", klru.Divergences(), kmp.Divergences())
		}
	})
}
