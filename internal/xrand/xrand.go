// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by workload generators and the feature search.
//
// The simulator must be bit-for-bit reproducible across runs and Go
// versions, so it does not use math/rand (whose stream is only stable per
// major version for the global functions). The generator here is
// xoshiro256**, seeded via splitmix64, which is the reference seeding
// procedure for the xoshiro family.
package xrand

import (
	"math"
	"sync"
)

// RNG is a xoshiro256** pseudo-random number generator. The zero value is
// not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed using splitmix64.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform pseudo-random uint64 in [0, n). It panics if
// n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew parameter
// s > 0 by inverse-CDF sampling: a draw is the first entry of a cumulative
// table at or above a uniform u. The workload suite's tables reach 294,912
// entries, so a draw does not search the whole table. A guide of K = 2^k
// buckets over [0, 1) holds, for bucket b, the first entry at or above
// b/K, and a draw scans forward from its bucket's guide entry: about n/K
// steps on average, and exactly the entry a binary search over the table
// finds. A table depends only on (n, s), so it is built once per process
// and shared read-only by every sampler with the same parameters.
type Zipf struct {
	t   *zipfTable
	rng *RNG
}

// zipfTable is the cumulative table of one (n, s) and its guide.
type zipfTable struct {
	once  sync.Once
	cdf   []float64
	guide []int32 // guide[b]: the first index whose cdf entry is >= b/K
	shift uint    // 53 - k: a 53-bit draw's bucket is r >> shift
}

// zipfTables holds every table built so far, keyed by (n, s).
var zipfTables struct {
	sync.Mutex
	m map[zipfKey]*zipfTable
}

type zipfKey struct {
	n    int
	bits uint64 // math.Float64bits(s)
}

// NewZipf builds a Zipf sampler over n items with exponent s, drawing
// randomness from rng. Smaller ranks are more likely. The first sampler
// for an (n, s) builds its table; later ones share it.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	key := zipfKey{n, math.Float64bits(s)}
	zipfTables.Lock()
	t := zipfTables.m[key]
	if t == nil {
		if zipfTables.m == nil {
			zipfTables.m = make(map[zipfKey]*zipfTable)
		}
		t = new(zipfTable)
		zipfTables.m[key] = t
	}
	zipfTables.Unlock()
	// Built outside the lock, so tables of different (n, s) build in
	// parallel while a second caller of the same one waits for it.
	t.once.Do(func() { t.build(n, s) })
	return &Zipf{t: t, rng: rng}
}

// build fills the cumulative table and its guide. K is the smallest power
// of two >= n/4.
func (t *zipfTable) build(n int, s float64) {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	k := uint(0)
	for 4<<k < n {
		k++
	}
	// b/K is a float64, so each comparison against a bucket edge is exact.
	guide := make([]int32, 1<<k)
	i := 0
	for b := range guide {
		edge := float64(b) / float64(len(guide))
		for i < n-1 && cdf[i] < edge {
			i++
		}
		guide[b] = int32(i)
	}
	t.cdf, t.guide, t.shift = cdf, guide, 53-k
}

// Draw returns the next sample in [0, n). It consumes one Uint64, as
// Float64 does.
func (z *Zipf) Draw() int { return z.t.index(z.rng.Uint64() >> 11) }

// index returns the first entry at or above u = r/2^53 (the last entry if
// none is), for a 53-bit r: the value Float64 would have returned. u lies
// in bucket r >> shift exactly, since b/K <= u holds iff b <= r >> shift.
func (t *zipfTable) index(r uint64) int {
	u := float64(r) / (1 << 53)
	i := int(t.guide[r>>t.shift])
	last := len(t.cdf) - 1
	for i < last && t.cdf[i] < u {
		i++
	}
	return i
}

// pow computes x**y for y >= 0 with its own series rather than math.Pow,
// so the sampling tables, and every workload stream drawn from them, stay
// bit-for-bit what they have always been. Accuracy is more than
// sufficient for sampling tables.
func pow(x, y float64) float64 {
	// x**y = exp(y * ln x); use the identity via repeated squaring for the
	// integer part and a short series for the fractional part.
	if x <= 0 {
		return 0
	}
	yi := int(y)
	frac := y - float64(yi)
	r := 1.0
	base := x
	for yi > 0 {
		if yi&1 == 1 {
			r *= base
		}
		base *= base
		yi >>= 1
	}
	if frac != 0 {
		r *= exp(frac * ln(x))
	}
	return r
}

func ln(x float64) float64 {
	// ln(x) via atanh series on (x-1)/(x+1) after range reduction by
	// halving/doubling toward [0.5, 2).
	const ln2 = 0.6931471805599453
	k := 0
	for x > 2 {
		x /= 2
		k++
	}
	for x < 0.5 {
		x *= 2
		k--
	}
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := 0.0
	term := t
	for i := 1; i < 30; i += 2 {
		sum += term / float64(i)
		term *= t2
	}
	return 2*sum + float64(k)*ln2
}

func exp(x float64) float64 {
	// exp(x) via Taylor series after range reduction.
	neg := false
	if x < 0 {
		x = -x
		neg = true
	}
	n := int(x)
	frac := x - float64(n)
	// e**n by repeated multiplication.
	const e = 2.718281828459045
	r := 1.0
	for i := 0; i < n; i++ {
		r *= e
	}
	term := 1.0
	sum := 1.0
	for i := 1; i < 20; i++ {
		term *= frac / float64(i)
		sum += term
	}
	r *= sum
	if neg {
		return 1 / r
	}
	return r
}
