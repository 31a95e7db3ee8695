package cache

import (
	"fmt"

	"mpppb/internal/trace"
)

// Prefetcher is the hook the hierarchy uses to drive a hardware prefetcher.
// It is trained on L1 miss addresses (the paper's stream prefetcher "starts
// a stream on a L1 cache miss") and returns the byte addresses of blocks to
// prefetch into L2 and the LLC.
type Prefetcher interface {
	// OnL1Miss observes a demand L1 miss and returns prefetch addresses.
	// The returned slice is only valid until the next call.
	OnL1Miss(pc, addr uint64) []uint64
}

// Latencies holds the access latencies of the memory hierarchy, in cycles.
// A demand access costs the latency of the first level it hits in, plus
// any remaining in-flight time when the block was installed by a prefetch
// that has not completed yet.
type Latencies struct {
	L1  int
	L2  int
	LLC int
	Mem int
}

// DefaultLatencies mirrors the paper's methodology: 200 cycles to DRAM
// beyond the LLC, with conventional L1/L2/LLC hit latencies.
func DefaultLatencies() Latencies {
	return Latencies{L1: 4, L2: 16, LLC: 40, Mem: 240}
}

// One core's path through the memory system is split in two halves. The
// private half (Private: L1 data cache, unified L2, prefetcher) turns each
// trace record into an Op word, plus side words for what reaches the LLC; the
// shared half (Port) applies those to the LLC and times them. The split is
// exact because which frames hit, fill and evict above the LLC, and which
// requests reach it, in what order, depend on the core's records alone:
// L1 and L2 are LRU, a writeback that misses does not allocate, nothing
// invalidates, and the prefetcher reads only L1-miss PCs and addresses.
// Only when data arrives depends on the LLC, and the Port recomputes that
// from the arrival cycle it keeps for every L1 and L2 frame.
//
// Prefetches are modelled asynchronously: they consume no latency on the
// triggering access, but the prefetched block records the cycle its data
// arrives, and a demand access that catches up with an in-flight prefetch
// pays the remaining latency. This is what keeps replacement policy
// relevant for regular access patterns despite the prefetcher.

// Op is the first word of one captured trace record. Its bits, low to
// high:
//
//	0-15   the record's NonMem count
//	16     a store
//	17     L1 hit
//	18     L2 hit (L1 misses only)
//	19     the demand's L2 victim is dirty (L2 misses only)
//	20-22  prefetches that missed L2 (L1 misses only)
//	23-42  the L1 frame, set*ways+way
//	43-63  the L2 frame (L1 misses only)
//
// Side words follow the op only for what reaches the LLC: on an L2 miss
// the demand's PC and address, then the dirty L2 victim's block address
// if any; then for each prefetch that missed L2 its address, its L2 frame
// shifted left once with the low bit set when it evicted a dirty victim,
// and that victim's block address. Prefetches that hit L2 carry nothing:
// their latency is discarded. L1 victims are written back to L2 inside the
// capture and never reach the LLC. So an L1 hit takes one word.
type Op uint64

const (
	opStore  Op = 1 << 16
	opL1Hit  Op = 1 << 17
	opL2Hit  Op = 1 << 18
	opL2Dirt Op = 1 << 19
	opPfBits    = 20
	opL1Bits    = 23
	opL2Bits    = 43

	maxPrefetches = 7       // prefetches an Op can carry
	maxL1Frames   = 1 << 20 // frames the L1 field can name
	maxL2Frames   = 1 << 21 // frames the L2 field can name

	// MaxWords is the most words one captured record takes.
	MaxWords = 1 + 3 + 3*maxPrefetches
)

// NonMem returns the non-memory instructions that precede the op's access.
func (o Op) NonMem() int { return int(o & 0xffff) }

// Instructions returns the instructions the op's record retires.
func (o Op) Instructions() uint64 { return uint64(o&0xffff) + 1 }

// Private is one core's private levels as a capture runs them: the L1
// data cache, the unified L2 and the prefetcher (nil for none). L1 and L2
// always use LRU, as in the paper; neither may bypass. A capture reads no
// clock and never touches the LLC.
type Private struct {
	core   int
	l1, l2 *Cache
	pf     Prefetcher
}

// NewPrivate builds core's private levels. It panics when a level has
// more frames than an Op can name.
func NewPrivate(core int, l1, l2 *Cache, pf Prefetcher) *Private {
	if l1.sets*l1.ways > maxL1Frames || l2.sets*l2.ways > maxL2Frames {
		panic(fmt.Sprintf("cache: %d L1 and %d L2 frames exceed the %d and %d a capture can name",
			l1.sets*l1.ways, l2.sets*l2.ways, maxL1Frames, maxL2Frames))
	}
	return &Private{core: core, l1: l1, l2: l2, pf: pf}
}

// frame returns the frame an access touched or filled. The private levels
// never bypass, so every access that reaches one has a frame.
func (c *Cache) frame(o outcome) Op {
	if o.bypassed() {
		panic(fmt.Sprintf("cache %s: policy %s bypassed a private-level fill", c.name, c.policy.Name()))
	}
	return Op(o.set*c.ways + o.way)
}

// Capture runs one trace record through L1, L2 and the prefetcher, in the
// order of a serial hierarchy, and appends its op and side words to words,
// which must have MaxWords of spare capacity; it returns the extended
// slice. A panic leaves words as they were, so a capture never hands
// over part of a record.
func (p *Private) Capture(rec *trace.Record, words []uint64) []uint64 {
	w := words[len(words) : len(words)+MaxWords]
	op := Op(rec.NonMem)
	a := Access{PC: rec.PC, Addr: rec.Addr, Type: trace.Load, Core: p.core}
	if rec.IsWrite {
		a.Type = trace.Store
		op |= opStore
	}
	r1 := p.l1.access(a)
	if r1.hit() {
		w[0] = uint64(op | opL1Hit | Op(r1.set*p.l1.ways+r1.way)<<opL1Bits)
		return words[:len(words)+1]
	}
	op |= p.l1.frame(r1) << opL1Bits
	// L1 miss: train the prefetcher before going below, so the prefetch
	// stream mirrors the demand-miss stream the paper's prefetcher sees.
	var prefetches []uint64
	if p.pf != nil {
		prefetches = p.pf.OnL1Miss(rec.PC, rec.Addr)
	}
	n := 1
	r2 := p.l2.access(a)
	op |= p.l2.frame(r2) << opL2Bits
	if r2.hit() {
		op |= opL2Hit
	} else {
		w[1], w[2], n = rec.PC, rec.Addr, 3
		if victim, dirty := r2.dirtyVictim(); dirty {
			op |= opL2Dirt
			w[3], n = victim, 4
		}
	}
	// The L1 dirty victim goes to L2 (update-if-present; see Access docs).
	if victim, dirty := r1.dirtyVictim(); dirty {
		p.l2.access(Access{Addr: victim << trace.BlockBits, Type: trace.Writeback, Core: p.core})
	}
	if len(prefetches) > maxPrefetches {
		panic(fmt.Sprintf("cache: prefetcher returned %d addresses; a record carries at most %d", len(prefetches), maxPrefetches))
	}
	var missed Op
	for _, pa := range prefetches {
		r := p.l2.access(Access{PC: trace.PrefetchPC, Addr: pa, Type: trace.Prefetch, Core: p.core})
		if r.hit() {
			continue
		}
		missed++
		f := uint64(p.l2.frame(r)) << 1
		w[n] = pa
		if victim, dirty := r.dirtyVictim(); dirty {
			w[n+1], w[n+2], n = f|1, victim, n+3
		} else {
			w[n+1], n = f, n+2
		}
	}
	w[0] = uint64(op | missed<<opPfBits)
	return words[:len(words)+n]
}

// Port is one core's way into the shared LLC as a replay runs it. It
// applies the core's captured records to the LLC in the order a serial
// hierarchy made them, and recomputes every latency from the data-arrival
// cycle it keeps for each of the core's L1 and L2 frames.
type Port struct {
	core   int
	llc    *Cache
	lat    Latencies
	l1, l2 []uint64 // data-arrival cycle per L1 and L2 frame
}

// NewPort builds the replay side of p's core over the shared llc.
func NewPort(p *Private, llc *Cache, lat Latencies) *Port {
	return &Port{
		core: p.core, llc: llc, lat: lat,
		l1: make([]uint64, p.l1.sets*p.l1.ways),
		l2: make([]uint64, p.l2.sets*p.l2.ways),
	}
}

// arrival combines a level's hit latency with an in-flight fill: an
// access that catches up with a pending prefetch merges with it and waits
// for the remaining transfer time (an MSHR merge), rather than paying both.
func arrival(levelLat int, now, readyAt uint64) int {
	if readyAt > now {
		if remaining := int(readyAt - now); remaining > levelLat {
			return remaining
		}
	}
	return levelLat
}

// Replay applies one captured record issued at cycle now: op, whose side
// words start at words[s]. It returns the demand's latency in cycles and
// the index of the word after the record's last.
func (p *Port) Replay(op Op, words []uint64, s int, now uint64) (lat, next int) {
	if op&opL1Hit != 0 {
		return arrival(p.lat.L1, now, p.l1[op>>opL1Bits&(maxL1Frames-1)]), s
	}
	return p.miss(op, words, s, now)
}

// miss replays an L1 miss: the demand's LLC access, its L2 arrival and
// its L2 victim's writeback, then its L1 arrival, then each prefetch's LLC
// access, L2 arrival and victim writeback.
func (p *Port) miss(op Op, words []uint64, s int, now uint64) (int, int) {
	f2 := op >> opL2Bits
	var lat int
	if op&opL2Hit != 0 {
		lat = arrival(p.lat.L2, now, p.l2[f2])
	} else {
		a := Access{PC: words[s], Addr: words[s+1], Type: trace.Load, Core: p.core, Now: now}
		if op&opStore != 0 {
			a.Type = trace.Store
		}
		s += 2
		lat = p.below(a)
		p.l2[f2] = now + uint64(lat)
		if op&opL2Dirt != 0 {
			p.writeback(words[s], now)
			s++
		}
	}
	p.l1[op>>opL1Bits&(maxL1Frames-1)] = now + uint64(lat)
	for n := op >> opPfBits & maxPrefetches; n > 0; n-- {
		plat := p.below(Access{PC: trace.PrefetchPC, Addr: words[s], Type: trace.Prefetch, Core: p.core, Now: now})
		f := words[s+1]
		s += 2
		p.l2[f>>1] = now + uint64(plat)
		if f&1 != 0 {
			p.writeback(words[s], now)
			s++
		}
	}
	return lat, s
}

// below services an L2 miss from the LLC or memory and returns its
// latency. An LLC fill records when its data arrives.
func (p *Port) below(a Access) int {
	r := p.llc.access(a)
	if r.hit() {
		return arrival(p.lat.LLC, a.Now, r.at)
	}
	if !r.bypassed() {
		p.llc.SetReadyAt(r.set, r.way, a.Now+uint64(p.lat.Mem))
	}
	return p.lat.Mem
}

// writeback sends a dirty L2 victim to the LLC, which updates it if
// present; otherwise it goes on to memory.
func (p *Port) writeback(blockAddr, now uint64) {
	p.llc.access(Access{Addr: blockAddr << trace.BlockBits, Type: trace.Writeback, Core: p.core, Now: now})
}
