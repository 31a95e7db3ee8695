// Package predictor implements the prior-work reuse predictors the paper
// compares against: sampling-based dead block prediction (SDBP, Khan et
// al., MICRO 2010), perceptron-learning-based reuse prediction (Teran et
// al., MICRO 2016), and Hawkeye (Jain & Lin, ISCA 2016). Each is a
// cache.ReplacementPolicy for the LLC; SDBP and Perceptron also expose the
// confidence interface used for ROC measurement (Hawkeye's classification
// is not comparable, Section 6.3).
package predictor

import (
	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// SDBP configuration, following the MICRO 2010 paper scaled to a 16-way
// LLC: three skewed tables of two-bit saturating counters indexed by PC
// hashes, trained by a reduced-associativity LRU sampler.
const (
	sdbpTables     = 3
	sdbpTableSize  = 4096
	sdbpCtrMax     = 3
	sdbpSamplerWay = 12
	sdbpTagBits    = 16
	// sdbpThreshold classifies a block dead when the counter sum meets it.
	sdbpThreshold = 8
)

// samplerSets is how many LLC sets SDBP, Perceptron and Hawkeye sample.
const samplerSets = 64

// setSampler picks the sampled sets of SDBP, Perceptron and Hawkeye: every
// max(1, sets/samplerSets)-th LLC set, the first samplerSets only. Its
// value is that spacing.
type setSampler int

func newSetSampler(sets int) setSampler { return setSampler(max(1, sets/samplerSets)) }

// sampledSet maps an LLC set to a sampler set or -1.
func (sp setSampler) sampledSet(set int) int {
	if set%int(sp) != 0 {
		return -1
	}
	ss := set / int(sp)
	if ss >= samplerSets {
		return -1
	}
	return ss
}

type sdbpEntry struct {
	valid  bool
	tag    uint16
	lastPC uint64 // PC of the last instruction to access the block
	lruPos uint8
}

// SDBP is sampling-based dead block prediction driving replacement and
// bypass: blocks whose last-touch PC pattern predicts death are evicted
// first (or never cached).
type SDBP struct {
	setSampler
	ways    int
	tables  [sdbpTables][]uint8
	sampler []sdbpEntry // samplerSets * sdbpSamplerWay
	lru     *policy.LRU
	dead    []bool // per-frame dead prediction, refreshed on each access
}

// NewSDBP constructs SDBP for an LLC geometry.
func NewSDBP(sets, ways int) *SDBP {
	s := &SDBP{
		ways:       ways,
		sampler:    make([]sdbpEntry, samplerSets*sdbpSamplerWay),
		setSampler: newSetSampler(sets),
		lru:        policy.NewLRU(sets, ways),
		dead:       make([]bool, sets*ways),
	}
	for i := range s.tables {
		s.tables[i] = make([]uint8, sdbpTableSize)
	}
	return s
}

// hashPC produces the index for table t, skewing the hash per table as in
// skewed branch predictors.
func hashPC(pc uint64, t int) uint32 {
	h := pc >> 2
	h *= 0x9e3779b97f4a7c15
	h ^= h >> uint(21+t*7)
	h *= 0xc2b2ae3d27d4eb4f
	return uint32(h>>uint(13+t*5)) & (sdbpTableSize - 1)
}

// sum returns the summed counter value for a PC (0..9).
func (s *SDBP) sum(pc uint64) int {
	total := 0
	for t := 0; t < sdbpTables; t++ {
		total += int(s.tables[t][hashPC(pc, t)])
	}
	return total
}

// train adjusts the counters for a PC: up when the PC was a last touch
// (dead), down when the block was reused.
func (s *SDBP) train(pc uint64, dead bool) {
	for t := 0; t < sdbpTables; t++ {
		c := &s.tables[t][hashPC(pc, t)]
		if dead {
			if *c < sdbpCtrMax {
				*c++
			}
		} else if *c > 0 {
			*c--
		}
	}
}

// samplerAccess simulates the reduced-associativity LRU sampler and trains
// the tables on hits (reuse) and evictions (death).
func (s *SDBP) samplerAccess(ss int, block, pc uint64) {
	base := ss * sdbpSamplerWay
	tag := uint16((block * 0x9e3779b97f4a7c15) >> 48)

	hit := -1
	for w := 0; w < sdbpSamplerWay; w++ {
		e := &s.sampler[base+w]
		if e.valid && e.tag == tag {
			hit = w
			break
		}
	}
	if hit >= 0 {
		e := &s.sampler[base+hit]
		// Reuse: the previous access was not a last touch.
		s.train(e.lastPC, false)
		p0 := e.lruPos
		for w := 0; w < sdbpSamplerWay; w++ {
			d := &s.sampler[base+w]
			if d.valid && d.lruPos < p0 {
				d.lruPos++
			}
		}
		e.lruPos = 0
		e.lastPC = pc
		return
	}

	// Miss: insert at MRU, evicting the LRU entry (whose last access was a
	// last touch: train dead).
	victim := -1
	for w := 0; w < sdbpSamplerWay; w++ {
		d := &s.sampler[base+w]
		if !d.valid {
			if victim < 0 {
				victim = w
			}
			continue
		}
		d.lruPos++
		if int(d.lruPos) >= sdbpSamplerWay {
			s.train(d.lastPC, true)
			d.valid = false
			victim = w
		}
	}
	if victim < 0 {
		victim = 0
	}
	s.sampler[base+victim] = sdbpEntry{valid: true, tag: tag, lastPC: pc, lruPos: 0}
}

// Name implements cache.ReplacementPolicy.
func (s *SDBP) Name() string { return "sdbp" }

// Predict implements the confidence interface: the summed counters.
func (s *SDBP) Predict(a cache.Access, set int, _ bool) int { return s.sum(a.PC) }

// Hit implements cache.ReplacementPolicy.
func (s *SDBP) Hit(set, way int, a cache.Access) {
	if a.Type == trace.Writeback {
		return
	}
	if ss := s.sampledSet(set); ss >= 0 {
		s.samplerAccess(ss, a.Block(), a.PC)
	}
	s.dead[set*s.ways+way] = s.sum(a.PC) >= sdbpThreshold
	s.lru.Hit(set, way, a)
}

// Victim implements cache.ReplacementPolicy: bypass dead-on-arrival blocks;
// otherwise evict a predicted-dead block, falling back to LRU.
func (s *SDBP) Victim(set int, a cache.Access) (int, bool) {
	if s.sum(a.PC) >= sdbpThreshold {
		// Dead on arrival: bypass. Fill will not run, so the sampler
		// access happens here.
		if ss := s.sampledSet(set); ss >= 0 {
			s.samplerAccess(ss, a.Block(), a.PC)
		}
		return 0, true
	}
	base := set * s.ways
	for w := 0; w < s.ways; w++ {
		if s.dead[base+w] {
			return w, false
		}
	}
	return s.lru.Victim(set, a)
}

// Fill implements cache.ReplacementPolicy.
func (s *SDBP) Fill(set, way int, a cache.Access) {
	if ss := s.sampledSet(set); ss >= 0 {
		s.samplerAccess(ss, a.Block(), a.PC)
	}
	s.dead[set*s.ways+way] = false
	s.lru.Fill(set, way, a)
}

// Evict implements cache.ReplacementPolicy.
func (s *SDBP) Evict(set, way int, blockAddr uint64) {
	s.dead[set*s.ways+way] = false
	s.lru.Evict(set, way, blockAddr)
}

var _ cache.ReplacementPolicy = (*SDBP)(nil)
