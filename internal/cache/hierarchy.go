package cache

import (
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

// Hierarchy is one core's path through the memory system: private L1 data
// cache and unified L2, plus a (possibly shared) last-level cache. L1 and L2
// always use LRU; the experiments vary only the LLC policy, as in the paper.
//
// Prefetches are modelled asynchronously: they consume no latency on the
// triggering access, but the prefetched block records the cycle its data
// arrives, and a demand access that catches up with an in-flight prefetch
// pays the remaining latency. This is what keeps replacement policy
// relevant for regular access patterns despite the prefetcher.
type Hierarchy struct {
	Core int
	L1   *Cache
	L2   *Cache
	LLC  *Cache
	Pf   Prefetcher
	Lat  Latencies

	// MemWritebacks counts dirty evictions that left the LLC (or missed
	// in a lower level on their writeback path) toward memory.
	MemWritebacks uint64
	// PrefetchesIssued counts prefetch requests sent below L1.
	PrefetchesIssued uint64
	// LatePrefetchCycles accumulates the demand stall cycles spent waiting
	// on in-flight prefetches.
	LatePrefetchCycles uint64
}

// hitLatency combines a level's hit latency with an in-flight fill: an
// access that catches up with a pending prefetch merges with it and waits
// for the remaining transfer time (an MSHR merge), rather than paying both.
// Only demands count that wait as a stall.
func (h *Hierarchy) hitLatency(levelLat int, typ trace.AccessType, now, readyAt uint64) int {
	if readyAt > now {
		if remaining := int(readyAt - now); remaining > levelLat {
			if typ != trace.Prefetch {
				h.LatePrefetchCycles += uint64(remaining - levelLat)
			}
			return remaining
		}
	}
	return levelLat
}

// Demand performs a demand load or store issued at cycle now and returns
// its latency in cycles.
func (h *Hierarchy) Demand(pc, addr uint64, isWrite bool, now uint64) int {
	typ := trace.Load
	if isWrite {
		typ = trace.Store
	}
	a := Access{PC: pc, Addr: addr, Type: typ, Core: h.Core, Now: now}

	r1 := h.L1.access(a)
	if r1.hit() {
		return h.hitLatency(h.Lat.L1, typ, now, r1.at)
	}
	// L1 miss: train the prefetcher before going below, so the prefetch
	// stream mirrors the demand-miss stream the paper's prefetcher sees.
	var prefetches []uint64
	if h.Pf != nil {
		prefetches = h.Pf.OnL1Miss(pc, addr)
	}

	lat := h.accessBelowL1(a)

	// The L1 fill completes when the data arrives.
	h.L1.SetReadyAt(r1.set, r1.way, now+uint64(lat))

	// L1 dirty victim goes to L2 (update-if-present; see Access docs).
	if victim, dirty := r1.dirtyVictim(); dirty {
		h.writeback(h.L2, victim, now)
	}

	for _, pa := range prefetches {
		h.PrefetchesIssued++
		h.accessBelowL1(Access{PC: trace.PrefetchPC, Addr: pa, Type: trace.Prefetch, Core: h.Core, Now: now})
	}
	return lat
}

// accessBelowL1 services an L1 miss or a prefetch from L2, the LLC, or
// memory and returns the access latency. Each level it fills records when
// the data arrives. Prefetches stop at L2 and add no latency to the access
// that triggered them, so theirs goes unused.
func (h *Hierarchy) accessBelowL1(a Access) int {
	now := a.Now
	r2 := h.L2.access(a)
	if r2.hit() {
		return h.hitLatency(h.Lat.L2, a.Type, now, r2.at)
	}
	lat := h.Lat.Mem
	r3 := h.LLC.access(a)
	if r3.hit() {
		lat = h.hitLatency(h.Lat.LLC, a.Type, now, r3.at)
	} else {
		if !r3.bypassed() {
			h.LLC.SetReadyAt(r3.set, r3.way, now+uint64(lat))
		}
		if _, dirty := r3.dirtyVictim(); dirty {
			h.MemWritebacks++
		}
	}
	if !r2.bypassed() {
		h.L2.SetReadyAt(r2.set, r2.way, now+uint64(lat))
	}
	if victim, dirty := r2.dirtyVictim(); dirty {
		h.writeback(h.LLC, victim, now)
	}
	return lat
}

// writeback sends a dirty victim to the given lower-level cache; if it
// misses there it continues to memory.
func (h *Hierarchy) writeback(c *Cache, blockAddr uint64, now uint64) {
	a := Access{Addr: blockAddr << trace.BlockBits, Type: trace.Writeback, Core: h.Core, Now: now}
	if !c.access(a).hit() {
		h.MemWritebacks++
	}
}

// ResetStats clears statistics on all levels (the LLC may be shared; callers
// coordinating multiple hierarchies should reset it once).
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.MemWritebacks = 0
	h.PrefetchesIssued = 0
	h.LatePrefetchCycles = 0
}
