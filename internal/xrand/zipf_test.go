package xrand

import (
	"fmt"
	"sync"
	"testing"
)

// searchDraw is the draw the guide replaces: a binary search for the first
// cdf entry at or above u = r/2^53 (the last entry if none is).
func searchDraw(cdf []float64, r uint64) int {
	u := float64(r) / (1 << 53)
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkGuide builds the (n, s) table and compares the guide draw with the
// binary search for random 53-bit values, for both sides of every bucket
// edge, and for the 53-bit values nearest each of up to 4096 cdf entries,
// where u equals or straddles an entry.
func checkGuide(t testing.TB, n int, s float64, seed uint64, draws int) {
	t.Helper()
	tb := new(zipfTable)
	tb.build(n, s)
	if k := len(tb.guide); k&(k-1) != 0 || 4*k < n || (k > 1 && 2*k >= n) {
		t.Fatalf("n=%d: %d guide buckets, want the smallest power of two >= n/4", n, k)
	}
	check := func(r uint64) {
		if r >= 1<<53 {
			return
		}
		if got, want := tb.index(r), searchDraw(tb.cdf, r); got != want {
			t.Fatalf("n=%d s=%v r=%#x (u=%v, bucket %d): guide draw %d, binary search %d",
				n, s, r, float64(r)/(1<<53), r>>tb.shift, got, want)
		}
	}
	rng := New(seed)
	for i := 0; i < draws; i++ {
		check(rng.Uint64() >> 11)
	}
	for b := uint64(0); b < uint64(len(tb.guide)); b++ {
		edge := b << tb.shift
		check(edge)
		check(edge - 1)
		check(edge + 1)
	}
	step := 1
	if n > 4096 {
		step = n / 4096
	}
	for i := 0; i < n; i += step {
		r := uint64(tb.cdf[i] * (1 << 53))
		check(r - 1)
		check(r)
		check(r + 1)
	}
	check(1<<53 - 1)
}

// TestZipfGuideMatchesBinarySearch covers the suite's table sizes (the
// small hot sets, mlpack_cf_like-2's 98,304 and data_caching_like-2's
// 294,912 entries) and small odd sizes, at the suite's exponents and
// steeper ones whose tails round to equal cdf entries.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 100, 3 * 1024, 4096, 98304, 294912} {
		for _, s := range []float64{0.8, 0.9, 1.0, 1.1, 3.5} {
			checkGuide(t, n, s, uint64(n)*7+uint64(s*10), 20000)
		}
	}
}

// TestZipfDrawConsumesOneUint64 requires a draw to advance the generator
// exactly as Float64 does, so every other draw from a shared generator
// keeps its value.
func TestZipfDrawConsumesOneUint64(t *testing.T) {
	a, b := New(5), New(5)
	z := NewZipf(a, 4096, 0.9)
	for i := 0; i < 1000; i++ {
		z.Draw()
		b.Float64()
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: generator at %#x after a draw, %#x after Float64", i, x, y)
		}
	}
}

// TestZipfTablesShared builds the same (n, s) sampler from several
// goroutines at once: every sampler must hold the one table, built once,
// while a different exponent gets its own.
func TestZipfTablesShared(t *testing.T) {
	const n, s = 12345, 0.87
	zs := make([]*Zipf, 8)
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zs[i] = NewZipf(New(uint64(i)), n, s)
			zs[i].Draw()
		}()
	}
	wg.Wait()
	for i, z := range zs {
		if z.t != zs[0].t {
			t.Fatalf("sampler %d holds table %p, sampler 0 holds %p", i, z.t, zs[0].t)
		}
	}
	if len(zs[0].t.cdf) != n {
		t.Fatalf("shared table has %d entries, want %d", len(zs[0].t.cdf), n)
	}
	if other := NewZipf(New(1), n, s+0.01); other.t == zs[0].t {
		t.Fatal("a different exponent shares the table")
	}
}

// FuzzZipfDraw checks guide draws against the binary search for a fuzzed
// table size, exponent and draw seed, bucket edges included. It builds
// its tables outside the shared set, which would otherwise keep every
// fuzzed table for the life of the process.
func FuzzZipfDraw(f *testing.F) {
	f.Add(uint32(4096), uint16(7373), uint64(1))
	f.Add(uint32(98304), uint16(7373), uint64(2))
	f.Add(uint32(5), uint16(65535), uint64(3))
	f.Add(uint32(1), uint16(0), uint64(4))
	f.Fuzz(func(t *testing.T, n uint32, s uint16, seed uint64) {
		// n in [1, 300000], s in [0, 8).
		checkGuide(t, 1+int(n%300000), float64(s)/8192, seed, 2000)
	})
}

// BenchmarkZipfDraw measures one draw at the suite's small hot-set size
// and at mlpack_cf_like-2's and data_caching_like-2's table sizes.
func BenchmarkZipfDraw(b *testing.B) {
	for _, n := range []int{4096, 98304, 294912} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipf(New(1), n, 0.9)
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += z.Draw()
			}
			sink = sum
		})
	}
}

var sink int
