package verify

import (
	"fmt"
	"sort"
	"strings"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
)

// cacheModel is the naive reference cache: per set, an unordered list of
// resident block addresses. It implements cache.Observer and replays every
// completed operation against its own state, verifying the production
// outcome (hit/miss, fill location, eviction, invalidation) and, every
// sweepEvery events, the full content of the production array.
type cacheModel struct {
	k      *Checker
	c      level
	sets   int
	ways   int
	mask   uint64
	blocks [][]uint64 // per set, resident block addresses (unordered)
}

func newCacheModel(k *Checker, c level) *cacheModel {
	return &cacheModel{
		k:      k,
		c:      c,
		sets:   c.Sets(),
		ways:   c.Ways(),
		mask:   uint64(c.Sets() - 1),
		blocks: make([][]uint64, c.Sets()),
	}
}

// contains returns the index of block in the model set, or -1.
func (m *cacheModel) contains(set int, block uint64) int {
	for i, b := range m.blocks[set] {
		if b == block {
			return i
		}
	}
	return -1
}

// remove deletes the i-th block of a set.
func (m *cacheModel) remove(set, i int) {
	s := m.blocks[set]
	m.blocks[set] = append(s[:i], s[i+1:]...)
}

// dump renders a set in both models for divergence reports.
func (m *cacheModel) dump(set int) string {
	blocks := append([]uint64(nil), m.blocks[set]...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "  reference set %d:", set)
	for _, blk := range blocks {
		fmt.Fprintf(&b, " %#x", blk)
	}
	b.WriteString("\n  production ")
	b.WriteString(m.c.DumpSet(set))
	return b.String()
}

// OnAccess implements cache.Observer: replay one access against the model
// and verify the production result.
func (m *cacheModel) OnAccess(a cache.Access, r cache.Result) { m.check(a.Addr, a.Type, r) }

// check replays one access to byte address addr against the model and
// verifies the production result.
func (m *cacheModel) check(addr uint64, typ trace.AccessType, r cache.Result) {
	block := addr >> trace.BlockBits
	set := int(block & m.mask)
	if r.Set != set {
		m.k.failf("", "access %#x: production set %d, reference set %d", addr, r.Set, set)
	}

	present := m.contains(set, block) >= 0
	if r.Hit != present {
		m.k.failf(m.dump(set), "access %#x (%v): production hit=%v, reference hit=%v",
			addr, typ, r.Hit, present)
	}

	switch {
	case r.Hit:
		if got, ok := m.c.BlockAddrAt(r.Set, r.Way); !ok || got != block {
			m.k.failf(m.dump(set), "hit of %#x reported in way %d which holds %#x (valid=%v)",
				block, r.Way, got, ok)
		}
	case typ == trace.Writeback:
		// Writeback misses never allocate.
		if !r.Bypassed {
			m.k.failf(m.dump(set), "writeback miss of %#x did not report Bypassed", addr)
		}
	case r.Bypassed:
		// Policy bypass: no state change.
	default:
		// Fill. Mirror the eviction, then the insertion.
		if r.EvictedValid {
			i := m.contains(set, r.EvictedAddr)
			if i < 0 {
				m.k.failf(m.dump(set), "fill of %#x evicted %#x which the reference does not hold",
					block, r.EvictedAddr)
			} else {
				m.remove(set, i)
			}
		} else if len(m.blocks[set]) >= m.ways {
			m.k.failf(m.dump(set), "fill of %#x into full set %d evicted nothing", block, set)
		}
		m.blocks[set] = append(m.blocks[set], block)
		if len(m.blocks[set]) > m.ways {
			m.k.failf(m.dump(set), "set %d holds %d blocks, associativity %d",
				set, len(m.blocks[set]), m.ways)
		}
		if got, ok := m.c.BlockAddrAt(r.Set, r.Way); !ok || got != block {
			m.k.failf(m.dump(set), "fill of %#x reported in way %d which holds %#x (valid=%v)",
				block, r.Way, got, ok)
		}
	}

	m.k.events++
	if m.k.events%m.k.sweepEvery == 0 {
		m.k.sweep()
	}
}

// OnInvalidate implements cache.Observer.
func (m *cacheModel) OnInvalidate(blockAddr uint64, present bool) {
	set := int(blockAddr & m.mask)
	i := m.contains(set, blockAddr)
	if (i >= 0) != present {
		m.k.failf(m.dump(set), "invalidate of %#x: production present=%v, reference present=%v",
			blockAddr, present, i >= 0)
	}
	if i >= 0 {
		m.remove(set, i)
	}
	m.k.events++
}

// checkAll compares the full production array against the model: same
// resident blocks in every set, no duplicates.
func (m *cacheModel) checkAll() {
	for set := 0; set < m.sets; set++ {
		var prod []uint64
		for w := 0; w < m.ways; w++ {
			if addr, ok := m.c.BlockAddrAt(set, w); ok {
				prod = append(prod, addr)
			}
		}
		ref := append([]uint64(nil), m.blocks[set]...)
		sort.Slice(prod, func(i, j int) bool { return prod[i] < prod[j] })
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		if len(prod) != len(ref) {
			m.k.failf(m.dump(set), "sweep: set %d holds %d blocks, reference %d", set, len(prod), len(ref))
			continue
		}
		for i := range prod {
			if prod[i] != ref[i] {
				m.k.failf(m.dump(set), "sweep: set %d content mismatch", set)
				break
			}
			if i > 0 && prod[i] == prod[i-1] {
				m.k.failf(m.dump(set), "sweep: set %d holds duplicate block %#x", set, prod[i])
				break
			}
		}
	}
}

var _ cache.Observer = (*cacheModel)(nil)
