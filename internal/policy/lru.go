// Package policy implements the baseline replacement policies the paper
// builds on and compares against: true LRU, random, tree-based pseudo-LRU,
// SRRIP and DRRIP (Jaleel et al., ISCA 2010), and static MDPP (Teran et
// al., HPCA 2016), the default policy under single-thread MPPPB.
//
// All policies implement cache.ReplacementPolicy and are constructed for a
// fixed geometry.
package policy

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mpppb/internal/cache"
)

// LRU is true least-recently-used replacement. It keeps an explicit recency
// rank per block (0 = MRU) so recency positions can be inspected, which the
// paper's sampler and the MDPP position machinery rely on.
//
// A set's ranks are contiguous bytes, so touch and Victim work on them
// eight at a time as the byte lanes of a uint64 (laneOnes/laneHighs), with
// a scalar loop for the ways past the last whole word. The lane arithmetic
// needs every rank below 128; sets wider than laneMaxWays use the scalar
// loop throughout.
type LRU struct {
	ways  int
	wide  int     // ways covered by whole 8-lane words; 0 above laneMaxWays
	ranks []uint8 // sets*ways
}

const (
	laneOnes    = 0x0101010101010101
	laneHighs   = 0x8080808080808080
	laneMaxWays = 128
)

// NewLRU constructs LRU state for the given geometry.
func NewLRU(sets, ways int) *LRU {
	if ways > 255 {
		panic("policy: LRU supports at most 255 ways")
	}
	l := &LRU{ways: ways, ranks: make([]uint8, sets*ways)}
	if ways <= laneMaxWays {
		l.wide = ways &^ 7
	}
	// Start each set as a well-formed stack: way i at rank i.
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			l.ranks[s*ways+w] = uint8(w)
		}
	}
	return l
}

// Name implements cache.ReplacementPolicy.
func (l *LRU) Name() string { return "lru" }

// Rank returns the recency rank of (set, way): 0 is MRU, ways-1 is LRU.
func (l *LRU) Rank(set, way int) int { return int(l.ranks[set*l.ways+way]) }

// lanesAtLeast returns laneHighs restricted to the byte lanes of x whose
// value is >= n. Every lane must be below 128 and n at most 128: setting a
// lane's high bit before subtracting n then leaves that lane non-negative,
// so no borrow crosses into the next lane.
func lanesAtLeast(x uint64, n int) uint64 {
	return ((x | laneHighs) - uint64(n)*laneOnes) & laneHighs
}

// touch moves (set, way) to rank `to`, shifting intervening blocks by one.
func (l *LRU) touch(set, way, to int) {
	row := l.ranks[set*l.ways : (set+1)*l.ways]
	from := int(row[way])
	if from == to {
		return
	}
	// Promote: everything in [to, from) moves down one. Demote: everything
	// in (from, to] moves up one. The touched way lies in neither range.
	lo, hi := to, from
	if from < to {
		lo, hi = from+1, to+1
	}
	w := 0
	for ; w < l.wide; w += 8 {
		x := binary.LittleEndian.Uint64(row[w:])
		in := (lanesAtLeast(x, lo) &^ lanesAtLeast(x, hi)) >> 7
		if from > to {
			x += in
		} else {
			x -= in
		}
		binary.LittleEndian.PutUint64(row[w:], x)
	}
	for ; w < len(row); w++ {
		if r := int(row[w]); r >= lo && r < hi {
			if from > to {
				row[w]++
			} else {
				row[w]--
			}
		}
	}
	row[way] = uint8(to)
}

// Hit implements cache.ReplacementPolicy: promote to MRU.
func (l *LRU) Hit(set, way int, _ cache.Access) { l.touch(set, way, 0) }

// Victim implements cache.ReplacementPolicy: evict the LRU block.
func (l *LRU) Victim(set int, _ cache.Access) (int, bool) {
	row := l.ranks[set*l.ways : (set+1)*l.ways]
	last := uint8(l.ways - 1)
	w := 0
	for ; w < l.wide; w += 8 {
		// Lanes equal to last become zero. Setting each lane's high bit
		// and subtracting one clears that bit in exactly the zero lanes,
		// with no borrow between lanes.
		x := binary.LittleEndian.Uint64(row[w:]) ^ uint64(last)*laneOnes
		if z := ^((x | laneHighs) - laneOnes) & laneHighs; z != 0 {
			return w + bits.TrailingZeros64(z)/8, false
		}
	}
	for ; w < len(row); w++ {
		if row[w] == last {
			return w, false
		}
	}
	// Unreachable for well-formed stacks.
	panic(fmt.Sprintf("policy: LRU set %d has no rank-%d block", set, l.ways-1))
}

// Fill implements cache.ReplacementPolicy: insert at MRU.
func (l *LRU) Fill(set, way int, _ cache.Access) { l.touch(set, way, 0) }

// Evict implements cache.ReplacementPolicy (no action; the subsequent Fill
// re-ranks the frame).
func (l *LRU) Evict(int, int, uint64) {}

var _ cache.ReplacementPolicy = (*LRU)(nil)
