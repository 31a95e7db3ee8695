package predictor

import (
	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
)

// Perceptron-learning reuse prediction (Teran, Wang & Jiménez, MICRO 2016):
// the direct predecessor of the multiperspective predictor. Six fixed
// features — the current and three most recent memory-access PCs (each
// shifted by a small constant) and two shifts of the referenced block
// address — index six 256-entry tables of 6-bit weights. A sampler trains
// the weights with perceptron learning; predictions mark blocks dead (one
// extra bit per block, as the paper notes) and bypass dead-on-arrival
// fills.
const (
	percFeatures    = 6
	percTableSize   = 256
	percWeightMin   = -32
	percWeightMax   = 31
	percSamplerWays = 16
	percHistory     = 3
	// Training threshold and decision thresholds (tuned on this
	// repository's suite; the original paper tunes equivalents).
	percTheta      = 30
	percTauBypass  = 40
	percTauReplace = 10
	percMaxCores   = 4
)

type percEntry struct {
	valid bool
	tag   uint16
	yout  int16
	pos   uint8
	idx   [percFeatures]uint8
}

// Perceptron is the MICRO 2016 perceptron reuse predictor driving bypass
// and replacement over LRU.
type Perceptron struct {
	setSampler
	ways    int
	tables  [percFeatures][]int8
	hist    [percMaxCores][percHistory]uint64
	sampler []percEntry
	lru     *policy.LRU
	dead    []bool

	idx [percFeatures]uint8 // scratch
}

// NewPerceptron constructs the predictor for an LLC geometry.
func NewPerceptron(sets, ways int) *Perceptron {
	p := &Perceptron{
		ways:       ways,
		sampler:    make([]percEntry, samplerSets*percSamplerWays),
		setSampler: newSetSampler(sets),
		lru:        policy.NewLRU(sets, ways),
		dead:       make([]bool, sets*ways),
	}
	for i := range p.tables {
		p.tables[i] = make([]int8, percTableSize)
	}
	return p
}

// features computes the six table indices for an access.
func (p *Perceptron) features(a cache.Access) [percFeatures]uint8 {
	core := a.Core
	if core < 0 || core >= percMaxCores {
		core = 0
	}
	h := &p.hist[core]
	block := a.Block()
	mix := func(v uint64) uint8 {
		v *= 0x9e3779b97f4a7c15
		return uint8(v >> 56)
	}
	return [percFeatures]uint8{
		mix(a.PC >> 2),
		mix(h[0] >> 1),
		mix(h[1] >> 2),
		mix(h[2] >> 3),
		mix(block >> 4),
		mix(block >> 7),
	}
}

// yout sums the selected weights.
func (p *Perceptron) yout(idx [percFeatures]uint8) int {
	s := 0
	for i := range p.tables {
		s += int(p.tables[i][idx[i]])
	}
	return s
}

// push records a PC into the per-core history (demand accesses only).
func (p *Perceptron) push(a cache.Access) {
	if a.PC == trace.PrefetchPC {
		return
	}
	core := a.Core
	if core < 0 || core >= percMaxCores {
		core = 0
	}
	h := &p.hist[core]
	h[2], h[1], h[0] = h[1], h[0], a.PC
}

func (p *Perceptron) bump(f int, ix uint8, up bool) {
	w := &p.tables[f][ix]
	if up {
		if *w < percWeightMax {
			*w++
		}
	} else if *w > percWeightMin {
		*w--
	}
}

// samplerAccess trains weights by perceptron learning: reuse decrements the
// stored indices' weights (toward "live"), eviction increments (toward
// "dead"), in both cases only when the stored output was within the
// training threshold.
func (p *Perceptron) samplerAccess(ss int, block uint64, yout int, idx [percFeatures]uint8) {
	base := ss * percSamplerWays
	tag := uint16((block * 0x9e3779b97f4a7c15) >> 48)

	hit := -1
	for w := 0; w < percSamplerWays; w++ {
		e := &p.sampler[base+w]
		if e.valid && e.tag == tag {
			hit = w
			break
		}
	}
	if hit >= 0 {
		e := &p.sampler[base+hit]
		if int(e.yout) > -percTheta {
			for i := 0; i < percFeatures; i++ {
				p.bump(i, e.idx[i], false)
			}
		}
		p0 := e.pos
		for w := 0; w < percSamplerWays; w++ {
			d := &p.sampler[base+w]
			if d.valid && d.pos < p0 {
				d.pos++
			}
		}
		e.pos = 0
		e.yout = int16(yout)
		e.idx = idx
		return
	}

	victim := -1
	for w := 0; w < percSamplerWays; w++ {
		d := &p.sampler[base+w]
		if !d.valid {
			if victim < 0 {
				victim = w
			}
			continue
		}
		d.pos++
		if int(d.pos) >= percSamplerWays {
			if int(d.yout) < percTheta {
				for i := 0; i < percFeatures; i++ {
					p.bump(i, d.idx[i], true)
				}
			}
			d.valid = false
			victim = w
		}
	}
	if victim < 0 {
		victim = 0
	}
	p.sampler[base+victim] = percEntry{valid: true, tag: tag, yout: int16(yout), pos: 0, idx: idx}
}

// Name implements cache.ReplacementPolicy.
func (p *Perceptron) Name() string { return "perceptron" }

// Predict implements the confidence interface.
func (p *Perceptron) Predict(a cache.Access, set int, _ bool) int {
	return p.yout(p.features(a))
}

// Hit implements cache.ReplacementPolicy.
func (p *Perceptron) Hit(set, way int, a cache.Access) {
	if a.Type == trace.Writeback {
		return
	}
	idx := p.features(a)
	y := p.yout(idx)
	if ss := p.sampledSet(set); ss >= 0 {
		p.samplerAccess(ss, a.Block(), y, idx)
	}
	p.dead[set*p.ways+way] = y > percTauReplace
	p.lru.Hit(set, way, a)
	p.push(a)
}

// Victim implements cache.ReplacementPolicy: bypass very confident dead-on-
// arrival predictions, otherwise evict a predicted-dead block, else LRU.
func (p *Perceptron) Victim(set int, a cache.Access) (int, bool) {
	idx := p.features(a)
	y := p.yout(idx)
	if y > percTauBypass {
		if ss := p.sampledSet(set); ss >= 0 {
			p.samplerAccess(ss, a.Block(), y, idx)
		}
		p.push(a)
		return 0, true
	}
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if p.dead[base+w] {
			return w, false
		}
	}
	return p.lru.Victim(set, a)
}

// Fill implements cache.ReplacementPolicy.
func (p *Perceptron) Fill(set, way int, a cache.Access) {
	idx := p.features(a)
	y := p.yout(idx)
	if ss := p.sampledSet(set); ss >= 0 {
		p.samplerAccess(ss, a.Block(), y, idx)
	}
	p.dead[set*p.ways+way] = y > percTauReplace
	p.lru.Fill(set, way, a)
	p.push(a)
}

// Evict implements cache.ReplacementPolicy.
func (p *Perceptron) Evict(set, way int, blockAddr uint64) {
	p.dead[set*p.ways+way] = false
	p.lru.Evict(set, way, blockAddr)
}

var _ cache.ReplacementPolicy = (*Perceptron)(nil)
