package predictor

import (
	"mpppb/internal/cache"
	"mpppb/internal/trace"
)

// Hawkeye (Jain & Lin, ISCA 2016): learns from Bélády's OPT rather than
// from an LRU sampler. A sampled OPTgen reconstructs, per sampled set,
// whether OPT would have hit each reuse interval; the PC that last touched
// the block is trained "cache-friendly" or "cache-averse" accordingly.
// Replacement uses 3-bit RRPVs: friendly blocks are inserted at 0 and aged,
// averse blocks are inserted at 7; evicting a friendly block detrains the
// PC that loaded it.
const (
	hawkRRPVMax = 7
	// Counters are 5-bit saturating, initialized weakly friendly: the
	// extra hysteresis over smaller counters keeps predictions stable
	// under the noisier reuse intervals of shared-cache workloads.
	hawkCtrMax    = 31
	hawkCtrInit   = 17
	hawkTableSize = 8192
	// hawkSamplerCap and hawkWindow size the sampled OPTgen. The window
	// must cover reuse intervals as seen by a *shared* LLC set, where a
	// block's own accesses are interleaved with other cores' traffic;
	// 32x associativity keeps long-but-live intervals classifiable, and
	// the address capacity covers the distinct blocks of half a window.
	hawkSamplerCap = 256 // tracked addresses per sampled set
	hawkWindow     = 512 // OPTgen occupancy-vector length
)

type hawkSampleEntry struct {
	valid    bool
	tag      uint16
	lastTime uint32
	lastPC   uint64
}

type hawkSet struct {
	time    uint32
	occ     [hawkWindow]uint8
	entries [hawkSamplerCap]hawkSampleEntry
}

// Hawkeye is the ISCA 2016 policy.
type Hawkeye struct {
	setSampler
	sets, ways  int
	ctr         []uint8 // PC counters
	rrpv        []uint8
	framePC     []uint64 // PC that last touched each frame (for detraining)
	sampled     []hawkSet
	detrainTick uint64
}

// NewHawkeye constructs Hawkeye for an LLC geometry.
func NewHawkeye(sets, ways int) *Hawkeye {
	h := &Hawkeye{
		sets:       sets,
		ways:       ways,
		ctr:        make([]uint8, hawkTableSize),
		rrpv:       make([]uint8, sets*ways),
		framePC:    make([]uint64, sets*ways),
		setSampler: newSetSampler(sets),
		sampled:    make([]hawkSet, samplerSets),
	}
	for i := range h.ctr {
		h.ctr[i] = hawkCtrInit
	}
	for i := range h.rrpv {
		h.rrpv[i] = hawkRRPVMax
	}
	return h
}

func hawkHash(pc uint64) uint32 {
	pc >>= 2
	pc *= 0xff51afd7ed558ccd
	return uint32(pc>>40) & (hawkTableSize - 1)
}

func (h *Hawkeye) friendly(pc uint64) bool { return h.ctr[hawkHash(pc)] > hawkCtrMax/2 }

func (h *Hawkeye) train(pc uint64, friendly bool) {
	c := &h.ctr[hawkHash(pc)]
	if friendly {
		if *c < hawkCtrMax {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// optgen simulates OPT's decision for the reuse interval ending at the
// current access: the interval fits if every time quantum it spans has
// spare capacity. If it fits, OPT would hit, and the occupancy of the
// interval is committed.
func (h *Hawkeye) optgen(s *hawkSet, from, to uint32) bool {
	if to-from >= hawkWindow {
		return false // interval longer than the modelled window: OPT miss
	}
	for t := from; t < to; t++ {
		if s.occ[t%hawkWindow] >= uint8(h.ways) {
			return false
		}
	}
	for t := from; t < to; t++ {
		s.occ[t%hawkWindow]++
	}
	return true
}

// samplerAccess feeds one access to the sampled OPTgen and trains the PC
// predictor.
func (h *Hawkeye) samplerAccess(ss int, block, pc uint64) {
	s := &h.sampled[ss]
	s.time++
	s.occ[s.time%hawkWindow] = 0 // the window slides; clear the new quantum
	tag := uint16((block * 0x9e3779b97f4a7c15) >> 48)

	var entry *hawkSampleEntry
	for i := range s.entries {
		e := &s.entries[i]
		if e.valid && e.tag == tag {
			entry = e
			break
		}
	}
	if entry != nil {
		h.train(entry.lastPC, h.optgen(s, entry.lastTime, s.time))
		entry.lastTime = s.time
		entry.lastPC = pc
		return
	}

	// New (or long-forgotten) block: allocate an entry, evicting the
	// oldest. If the evicted entry already aged past the OPTgen window,
	// OPT would have missed its next reuse anyway: detrain its last PC as
	// cache-averse. A still-young evicted entry's outcome is unknown, so
	// it trains nothing.
	victim := -1
	for i := range s.entries {
		if !s.entries[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		oldest := s.entries[0].lastTime
		for i := 1; i < len(s.entries); i++ {
			if s.entries[i].lastTime < oldest {
				victim, oldest = i, s.entries[i].lastTime
			}
		}
		if s.time-oldest >= hawkWindow {
			h.train(s.entries[victim].lastPC, false)
		}
	}
	s.entries[victim] = hawkSampleEntry{valid: true, tag: tag, lastTime: s.time, lastPC: pc}
}

// Name implements cache.ReplacementPolicy.
func (h *Hawkeye) Name() string { return "hawkeye" }

// Hit implements cache.ReplacementPolicy.
func (h *Hawkeye) Hit(set, way int, a cache.Access) {
	if a.Type == trace.Writeback {
		return
	}
	if ss := h.sampledSet(set); ss >= 0 {
		h.samplerAccess(ss, a.Block(), a.PC)
	}
	i := set*h.ways + way
	h.framePC[i] = a.PC
	// A demonstrated hit always earns recency protection. (Classifying a
	// hit block averse and leaving it at distant RRPV turns a single PC
	// misclassification into permanent eviction of a live working set,
	// which is what makes a naive Hawkeye unstable on shared caches.)
	h.rrpv[i] = 0
}

// hawkPrefetchRRPV is the neutral insertion used for hardware prefetches.
// All prefetches share one fake PC, so classifying them collectively would
// either pin every prefetch or evict every prefetch before its demand use;
// a middle re-reference prediction lets useful prefetches survive to their
// first demand access while still aging out pollution.
const hawkPrefetchRRPV = 2

// Victim implements cache.ReplacementPolicy: prefer a cache-averse block;
// if none, evict the oldest friendly block and detrain the PC that brought
// it in. Hawkeye never bypasses.
func (h *Hawkeye) Victim(set int, a cache.Access) (int, bool) {
	base := set * h.ways
	for w := 0; w < h.ways; w++ {
		if h.rrpv[base+w] == hawkRRPVMax {
			return w, false
		}
	}
	victim, maxR := 0, h.rrpv[base]
	for w := 1; w < h.ways; w++ {
		if h.rrpv[base+w] > maxR {
			victim, maxR = w, h.rrpv[base+w]
		}
	}
	// Forced eviction of a friendly block detrains the PC that brought it
	// in. The detrain is throttled: under heavy shared-cache pressure
	// every set is full of friendly blocks and unthrottled detraining
	// collapses all counters to averse, which is what makes a naive
	// Hawkeye thrash exactly where LRU succeeds.
	h.detrainTick++
	if h.detrainTick&7 == 0 {
		h.train(h.framePC[base+victim], false)
	}
	return victim, false
}

// Fill implements cache.ReplacementPolicy.
func (h *Hawkeye) Fill(set, way int, a cache.Access) {
	if ss := h.sampledSet(set); ss >= 0 {
		h.samplerAccess(ss, a.Block(), a.PC)
	}
	base := set * h.ways
	i := base + way
	h.framePC[i] = a.PC
	switch {
	case a.Type == trace.Prefetch:
		h.rrpv[i] = hawkPrefetchRRPV
	case h.friendly(a.PC):
		// Age other friendly blocks so older friendly blocks become
		// eviction candidates before newer ones.
		for w := 0; w < h.ways; w++ {
			if w != way && h.rrpv[base+w] < hawkRRPVMax-1 {
				h.rrpv[base+w]++
			}
		}
		h.rrpv[i] = 0
	default:
		h.rrpv[i] = hawkRRPVMax
	}
}

// Evict implements cache.ReplacementPolicy.
func (h *Hawkeye) Evict(set, way int, _ uint64) { h.rrpv[set*h.ways+way] = hawkRRPVMax }

var _ cache.ReplacementPolicy = (*Hawkeye)(nil)
