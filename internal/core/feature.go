// Package core implements the paper's contribution: the multiperspective
// reuse predictor (Section 3) and the MPPPB cache-management policy it
// drives (placement, promotion, and bypass over a default MDPP or SRRIP
// replacement policy).
//
// The predictor is a hashed perceptron: each of up to 16 parameterized
// features indexes its own small table of 6-bit weights; the weights sum to
// a confidence value (positive = predicted dead). An 18-way, LRU-managed
// sampler trains the tables, with each feature observing the sampler at its
// own virtual associativity (the A parameter).
package core

import (
	"fmt"
	"strconv"
	"strings"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
)

// Kind enumerates the seven parameterized feature types of Section 3.2.
type Kind uint8

// The seven feature kinds.
const (
	KindPC Kind = iota
	KindAddress
	KindBias
	KindBurst
	KindInsert
	KindLastMiss
	KindOffset
)

var kindNames = [...]string{"pc", "address", "bias", "burst", "insert", "lastmiss", "offset"}

// String returns the paper's name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString parses a feature kind name.
func KindFromString(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown feature kind %q", s)
}

// Limits on feature parameters. A is a recency-stack position in the
// sampler, which has SamplerWays ways; positions run 1..SamplerWays where
// SamplerWays means "only a true eviction counts as dead".
const (
	MinA = 1
	MaxA = SamplerWays
	// MaxW is the deepest PC-history element a pc feature may select
	// (the paper's published feature sets reach W=17).
	MaxW = 18
	// MaxBit is the highest bit index accepted for B/E parameters.
	MaxBit = 63
	// OffsetBits is the width of the block offset (64-byte blocks).
	OffsetBits = trace.BlockBits
	// MaxFeatures is the largest feature set a predictor accepts: the
	// sampler's per-position masks hold one bit per feature in a uint64,
	// and the confidence sum stages one byte per feature (kernel.go). The
	// paper's sets have 16 (DefaultFeatureCount).
	MaxFeatures = 64
)

// Feature is one parameterized feature: the kind plus the parameters from
// Section 3.2. Unused parameters are zero.
//
//   - A: the recency position beyond which a block is dead for this
//     feature's table (all kinds).
//   - B, E: bit range (pc, address, offset).
//   - W: PC-history depth (pc only; 0 = the current access's PC).
//   - X: XOR the feature bits with the current PC.
type Feature struct {
	Kind Kind
	A    int
	B    int
	E    int
	W    int
	X    bool
}

// String renders the feature in the paper's notation, e.g.
// "pc(10,1,53,10,0)" or "bias(16,0)".
func (f Feature) String() string {
	b := func(x bool) string {
		if x {
			return "1"
		}
		return "0"
	}
	switch f.Kind {
	case KindPC:
		return fmt.Sprintf("pc(%d,%d,%d,%d,%s)", f.A, f.B, f.E, f.W, b(f.X))
	case KindAddress:
		return fmt.Sprintf("address(%d,%d,%d,%s)", f.A, f.B, f.E, b(f.X))
	case KindOffset:
		return fmt.Sprintf("offset(%d,%d,%d,%s)", f.A, f.B, f.E, b(f.X))
	default:
		return fmt.Sprintf("%s(%d,%s)", f.Kind, f.A, b(f.X))
	}
}

// ParseFeature parses the paper's notation.
func ParseFeature(s string) (Feature, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return Feature{}, fmt.Errorf("core: malformed feature %q", s)
	}
	kind, err := KindFromString(s[:open])
	if err != nil {
		return Feature{}, err
	}
	parts := strings.Split(s[open+1:len(s)-1], ",")
	nums := make([]int, len(parts))
	for i, p := range parts {
		nums[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return Feature{}, fmt.Errorf("core: bad parameter in %q: %v", s, err)
		}
	}
	want := map[Kind]int{
		KindPC: 5, KindAddress: 4, KindOffset: 4,
		KindBias: 2, KindBurst: 2, KindInsert: 2, KindLastMiss: 2,
	}[kind]
	if len(nums) != want {
		return Feature{}, fmt.Errorf("core: %s takes %d parameters, got %d", kind, want, len(nums))
	}
	f := Feature{Kind: kind, A: nums[0]}
	switch kind {
	case KindPC:
		f.B, f.E, f.W, f.X = nums[1], nums[2], nums[3], nums[4] != 0
	case KindAddress, KindOffset:
		f.B, f.E, f.X = nums[1], nums[2], nums[3] != 0
	default:
		f.X = nums[1] != 0
	}
	if err := f.Validate(); err != nil {
		return Feature{}, err
	}
	return f, nil
}

// ParseFeatureSet parses a whitespace- or comma-separated list of features.
func ParseFeatureSet(s string) ([]Feature, error) {
	var out []Feature
	for _, tok := range strings.Fields(strings.ReplaceAll(s, ";", " ")) {
		f, err := ParseFeature(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: empty feature set")
	}
	return out, nil
}

// Validate checks parameter ranges. Offset features may declare E beyond
// the block-offset width — published feature sets do, e.g. Table 1(b)'s
// offset(15,3,7,0) — and the effective range is clamped once at
// construction (see offsetRange); everything else must be in range.
func (f Feature) Validate() error {
	if f.A < MinA || f.A > MaxA {
		return fmt.Errorf("core: %s: A=%d out of [%d,%d]", f, f.A, MinA, MaxA)
	}
	switch f.Kind {
	case KindPC, KindAddress, KindOffset:
		if f.B < 0 || f.B > MaxBit || f.E < 0 || f.E > MaxBit {
			return fmt.Errorf("core: %s: bit range out of [0,%d]", f, MaxBit)
		}
		if f.B > f.E {
			return fmt.Errorf("core: %s: B > E", f)
		}
	}
	if f.Kind == KindPC && (f.W < 0 || f.W > MaxW) {
		return fmt.Errorf("core: %s: W=%d out of [0,%d]", f, f.W, MaxW)
	}
	return nil
}

// offsetRange returns an offset feature's effective bit range: B/E clamped
// into the block-offset width. The clamp lives here — used once when a
// predictor compiles the feature, and by the reference Index/IndexBits —
// rather than being re-derived on every access.
func (f Feature) offsetRange() (b, e int) {
	b, e = f.B, f.E
	if e > OffsetBits-1 {
		e = OffsetBits - 1
	}
	if b > e {
		b = e
	}
	return b, e
}

// IndexBits returns the width of this feature's table index, following
// Section 3.4: pc/address features (and anything XORed with the PC) fold to
// 8 bits (256 weights); offset features use at most 6 bits (64 weights);
// single-bit features use 1 bit (2 weights) unless XORed; bias uses 0 bits
// (1 weight) unless XORed.
func (f Feature) IndexBits() int {
	switch f.Kind {
	case KindPC, KindAddress:
		return 8
	case KindOffset:
		b, e := f.offsetRange()
		n := e - b + 1
		if f.X && n < OffsetBits {
			n = OffsetBits
		}
		return n
	case KindBias:
		if f.X {
			return 8
		}
		return 0
	default: // burst, insert, lastmiss
		if f.X {
			return 8
		}
		return 1
	}
}

// TableSize returns the number of weights in this feature's table.
func (f Feature) TableSize() int { return 1 << uint(f.IndexBits()) }

// foldTo xor-folds a value down to n bits.
func foldTo(v uint64, n int) uint32 {
	if n <= 0 {
		return 0
	}
	mask := uint64(1)<<uint(n) - 1
	out := uint64(0)
	for v != 0 {
		out ^= v & mask
		v >>= uint(n)
	}
	return uint32(out)
}

// extractBits returns bits B..E (inclusive) of v.
func extractBits(v uint64, b, e int) uint64 {
	if b > 63 {
		return 0
	}
	v >>= uint(b)
	width := e - b + 1
	if width >= 64 {
		return v
	}
	return v & (uint64(1)<<uint(width) - 1)
}

// Input is the per-access information features are computed from. The
// predictor assembles it from the access, its own per-core history, and
// per-set metadata.
type Input struct {
	// PC is the current memory instruction's address (trace.PrefetchPC
	// for prefetches).
	PC uint64
	// Addr is the referenced byte address.
	Addr uint64
	// History holds recent memory-access PCs; History[0] is the current
	// PC, History[w] the w-th most recent before it. Only the reference
	// Feature.Index reads it — the predictor's compiled kernels read the
	// per-core history ring directly, so its hot path never fills this.
	History [MaxW + 1]uint64
	// Insert is true when the access is an insertion (a miss).
	Insert bool
	// Burst is true when the access re-references the most recently used
	// block of the set.
	Burst bool
	// LastMiss is true when the previous access to this set missed.
	LastMiss bool
}

// Index computes the feature's table index for an access. This is the
// reference implementation the compiled kernels are verified against; the
// predictor itself evaluates fastKernels (see kernel.go).
func (f Feature) Index(in *Input) uint32 {
	bits := f.IndexBits()
	var raw uint64
	switch f.Kind {
	case KindPC:
		raw = extractBits(in.History[f.W], f.B, f.E)
	case KindAddress:
		raw = extractBits(in.Addr, f.B, f.E)
	case KindOffset:
		b, e := f.offsetRange()
		raw = extractBits(in.Addr&(trace.BlockSize-1), b, e)
	case KindBias:
		raw = 0
	case KindBurst:
		if in.Burst {
			raw = 1
		}
	case KindInsert:
		if in.Insert {
			raw = 1
		}
	case KindLastMiss:
		if in.LastMiss {
			raw = 1
		}
	}
	if f.X {
		// Distribute the feature across the weights by mixing in the
		// current PC (Section 3.2). The low PC bits above the
		// instruction alignment carry the most entropy.
		raw ^= in.PC >> 2
	}
	return foldTo(raw, bits)
}

// dead reports whether a block at sampler recency position pos (0 = MRU)
// is beyond this feature's associativity, i.e. would have missed in a
// cache of associativity A.
func (f Feature) dead(pos int) bool { return pos >= f.A }

// FormatFeatureSet renders features one per line in the paper's notation.
func FormatFeatureSet(fs []Feature) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// accessPC returns the PC to use for an access (prefetches carry the fake
// PC already, so this is the identity today; kept for clarity at call
// sites).
func accessPC(a cache.Access) uint64 { return a.PC }
