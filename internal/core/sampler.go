package core

import (
	"fmt"
	"math/bits"
)

// The sampler (Section 3.3): a small number of LLC sets are designated as
// sampled; each has a corresponding 18-way, true-LRU-managed set of partial
// tags and metadata. Every access to a sampled set trains the predictor:
// reuse within a feature's A parameter trains the feature's table toward
// "live" (decrement), and a demotion that lands exactly on a feature's A
// parameter is an eviction from that feature's virtual cache and trains
// toward "dead" (increment). Section 3.8's two-round property holds by
// construction: LRU positions are distinct, so at most one block lands on
// each feature's boundary per access.

// Sampler geometry from the paper.
const (
	// SamplerWays is the sampler associativity: "Each set in the sampler
	// has 18 ways".
	SamplerWays = 18
	// DefaultSamplerSets is the single-core sampler size: "We choose 64
	// sampled sets per core" (Section 4.4).
	DefaultSamplerSets = 64
	// TagBits is the partial-tag width: "using 16 bits for each tag".
	TagBits = 16
)

// samplerEntry is one sampler block (Section 3.3): partial tag, 9-bit
// confidence from the last access, the feature-index vector from the last
// access, and a 4-5 bit LRU position.
type samplerEntry struct {
	valid bool
	tag   uint16
	conf  int16
	pos   uint8
}

// sampler holds the sampled sets. Index vectors are stored in a flat
// backing array: idx[(set*ways+way)*nf : ...+nf].
type sampler struct {
	sets    int
	nf      int
	spacing int // LLC sets per sampled set
	entries []samplerEntry
	idx     []uint16

	// sampledOf maps every LLC set to its sampler set (-1 if unsampled):
	// the hot-path form of sampledSetSlow, computed once at construction.
	sampledOf []int16

	// Per-position feature masks, precomputed from the feature set's A
	// parameters so the training loops need not scan the feature slice.
	// liveMask[p] has bit i set when feature i's virtual associativity
	// reaches position p (p < A[i]: the block is live for that feature);
	// boundaryMask[p] has bit i set when A[i] == p (a demotion to p is an
	// eviction from feature i's virtual cache). Most demotions land on a
	// position that is no feature's boundary, making trainDemoted a single
	// mask test. One bit per feature is why a feature set holds at most
	// MaxFeatures.
	liveMask     [SamplerWays + 1]uint64
	boundaryMask [SamplerWays + 1]uint64

	// theta is the perceptron training threshold: tables train only when
	// the stored confidence was below theta in magnitude (or mispredicted),
	// following the hashed-perceptron heritage of the predictor.
	theta int
}

// newSampler builds a sampler covering llcSets with the requested number of
// sampled sets (clamped to llcSets).
func newSampler(llcSets, samplerSets int, features []Feature, theta int) *sampler {
	if samplerSets > llcSets {
		samplerSets = llcSets
	}
	if samplerSets <= 0 {
		panic("core: non-positive sampler size")
	}
	if samplerSets > 1<<15-1 {
		panic("core: sampler size exceeds the int16 set map")
	}
	s := &sampler{
		sets:    samplerSets,
		nf:      len(features),
		spacing: llcSets / samplerSets,
		entries: make([]samplerEntry, samplerSets*SamplerWays),
		idx:     make([]uint16, samplerSets*SamplerWays*len(features)),
		theta:   theta,
	}
	// sampledSet runs on every LLC access; precompute the set→sampler-set
	// map so the hot path is one table load instead of two divisions.
	s.sampledOf = make([]int16, llcSets)
	for set := 0; set < llcSets; set++ {
		s.sampledOf[set] = int16(s.sampledSetSlow(set))
	}
	for i, f := range features {
		for p := 0; p <= SamplerWays; p++ {
			if p < f.A {
				s.liveMask[p] |= 1 << uint(i)
			}
			if p == f.A {
				s.boundaryMask[p] |= 1 << uint(i)
			}
		}
	}
	return s
}

// sampledSet maps an LLC set to its sampler set, or -1 if not sampled.
// Hot-path form: one table load (llcSet always comes from SetFor-style
// masking, so it is in range).
func (s *sampler) sampledSet(llcSet int) int {
	return int(s.sampledOf[llcSet])
}

// sampledSetSlow is the arithmetic definition sampledOf is built from:
// sampled sets are spread evenly through the cache, every spacing-th set.
func (s *sampler) sampledSetSlow(llcSet int) int {
	if llcSet%s.spacing != 0 {
		return -1
	}
	ss := llcSet / s.spacing
	if ss >= s.sets {
		return -1
	}
	return ss
}

// partialTag derives the 16-bit tag from a block address. Hashing spreads
// aliases uniformly; "it is permissible to allow a small number of distinct
// tags to map to the same block" (Section 3.3).
func partialTag(block uint64) uint16 {
	return uint16((block * 0x9e3779b97f4a7c15) >> 48)
}

// entryIdx returns the feature-index vector slice of an entry.
func (s *sampler) entryIdx(set, way int) []uint16 {
	base := (set*SamplerWays + way) * s.nf
	return s.idx[base : base+s.nf]
}

// access performs one sampler access for a block with the given freshly
// computed confidence and feature indices, training predictor tables as a
// side effect (Section 3.8). curIdx is the predictor's scratch index vector
// for the current access.
func (s *sampler) access(p *Predictor, set int, block uint64, conf int, curIdx []uint16) {
	tag := partialTag(block)
	base := set * SamplerWays

	// Probe for the block.
	hitWay := -1
	for w := 0; w < SamplerWays; w++ {
		e := &s.entries[base+w]
		if e.valid && e.tag == tag {
			hitWay = w
			break
		}
	}

	if hitWay >= 0 {
		e := &s.entries[base+hitWay]
		p0 := int(e.pos)

		// Training on reuse: for each feature whose virtual associativity
		// reaches the block's position, the block was live; decrement the
		// stored index's weight unless the stored confidence was already
		// confidently live (perceptron thresholding). The live features
		// for a position are a precomputed bitmask; the loop visits only
		// their set bits.
		eIdx := s.entryIdx(set, hitWay)
		if int(e.conf) > -s.theta {
			for m := s.liveMask[p0]; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				p.bump(i, eIdx[i], false)
			}
		}

		// Promote to MRU; blocks above the hit position demote by one.
		// A demotion landing exactly on a feature's A is an eviction for
		// that feature: train dead from the demoted block's stored vector.
		for w := 0; w < SamplerWays; w++ {
			d := &s.entries[base+w]
			if !d.valid || w == hitWay || int(d.pos) >= p0 {
				continue
			}
			d.pos++
			s.trainDemoted(p, set, w, int(d.pos))
		}
		e.pos = 0
		e.conf = int16(conf)
		copy(eIdx, curIdx)
		return
	}

	// Miss: insert at MRU. Every resident block demotes by one; the block
	// leaving position SamplerWays-1 is evicted (a demotion to position
	// SamplerWays, training features with A == SamplerWays).
	victim := -1
	for w := 0; w < SamplerWays; w++ {
		d := &s.entries[base+w]
		if !d.valid {
			if victim < 0 {
				victim = w
			}
			continue
		}
		d.pos++
		s.trainDemoted(p, set, w, int(d.pos))
		if int(d.pos) >= SamplerWays {
			// Evicted from the sampler entirely.
			d.valid = false
			victim = w
		}
	}
	if victim < 0 {
		// All ways valid and none crossed out: cannot happen with distinct
		// positions 0..SamplerWays-1, but guard for safety.
		victim = 0
	}
	e := &s.entries[base+victim]
	e.valid = true
	e.tag = tag
	e.pos = 0
	e.conf = int16(conf)
	copy(s.entryIdx(set, victim), curIdx)
}

// trainDemoted trains "dead" for every feature whose A parameter equals the
// demoted block's new position, using the block's stored index vector,
// subject to the training threshold. The boundary features for a position
// are a precomputed bitmask — most demotions land on a position that is no
// feature's boundary and cost one mask test.
func (s *sampler) trainDemoted(p *Predictor, set, way, newPos int) {
	m := s.boundaryMask[newPos]
	if m == 0 {
		return
	}
	d := &s.entries[set*SamplerWays+way]
	if int(d.conf) >= s.theta {
		return // already confidently dead; avoid weight saturation churn
	}
	dIdx := s.entryIdx(set, way)
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		p.bump(i, dIdx[i], true)
	}
}

// checkInvariants validates sampler LRU structure: every valid entry's
// position is in [0, SamplerWays) and no two valid entries of a set share
// a position — demotion is position-ordered, so a duplicated or
// out-of-range position silently corrupts training boundaries.
func (s *sampler) checkInvariants() error {
	for set := 0; set < s.sets; set++ {
		var seen [SamplerWays]bool
		for w := 0; w < SamplerWays; w++ {
			e := &s.entries[set*SamplerWays+w]
			if !e.valid {
				continue
			}
			if int(e.pos) >= SamplerWays {
				return fmt.Errorf("core: sampler set %d way %d at position %d >= %d", set, w, e.pos, SamplerWays)
			}
			if seen[e.pos] {
				return fmt.Errorf("core: sampler set %d has two blocks at position %d", set, e.pos)
			}
			seen[e.pos] = true
		}
	}
	return nil
}

// SizeBits estimates sampler storage: per entry, the index vector plus
// 9 bits of confidence, 16 bits of partial tag, and 5 bits of LRU state
// (Section 4.4 quotes 4 bits; 18 positions need 5).
func (s *sampler) SizeBits(indexBits int) int {
	perEntry := indexBits + 9 + TagBits + 5
	return s.sets * SamplerWays * perEntry
}
