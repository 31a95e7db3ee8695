package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Recency is true-LRU recency state: an explicit rank per frame, 0 the
// most recently used and ways-1 the least, each set's ranks a permutation
// of its ways. policy.LRU wraps it as a replacement policy, and every
// PrivateLevel keeps one beside its frames, so both rank the same way.
//
// A set's ranks are contiguous bytes, so Touch and LeastRecent work on
// them eight at a time as the byte lanes of a uint64 (laneOnes/laneHighs),
// with a scalar loop for the ways past the last whole word. The lane
// arithmetic needs every rank below 128; sets wider than laneMaxWays use
// the scalar loop throughout.
type Recency struct {
	ways  int
	wide  int     // ways covered by whole 8-lane words; 0 above laneMaxWays
	ranks []uint8 // sets*ways
}

const (
	laneOnes    = 0x0101010101010101
	laneHighs   = 0x8080808080808080
	laneMaxWays = 128
)

// NewRecency builds recency state for sets of the given ways, each set
// starting as a well-formed stack with way i at rank i.
func NewRecency(sets, ways int) Recency {
	if ways > 255 {
		panic(fmt.Sprintf("cache: true LRU supports at most 255 ways, not %d", ways))
	}
	r := Recency{ways: ways, ranks: make([]uint8, sets*ways)}
	if ways <= laneMaxWays {
		r.wide = ways &^ 7
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			r.ranks[s*ways+w] = uint8(w)
		}
	}
	return r
}

// Rank returns the recency rank of (set, way): 0 is MRU, ways-1 is LRU.
func (r *Recency) Rank(set, way int) int { return int(r.ranks[set*r.ways+way]) }

// lanesAtLeast returns laneHighs restricted to the byte lanes of x whose
// value is >= n. Every lane must be below 128 and n at most 128: setting a
// lane's high bit before subtracting n then leaves that lane non-negative,
// so no borrow crosses into the next lane.
func lanesAtLeast(x uint64, n int) uint64 {
	return ((x | laneHighs) - uint64(n)*laneOnes) & laneHighs
}

// Touch moves (set, way) to rank `to`, shifting intervening ways by one.
// It inlines, so a way already at its rank, as on a repeated hit to the
// MRU block, costs one load.
func (r *Recency) Touch(set, way, to int) {
	if int(r.ranks[set*r.ways+way]) != to {
		r.move(set, way, to)
	}
}

// move is Touch for a way not already at rank `to`.
func (r *Recency) move(set, way, to int) {
	row := r.ranks[set*r.ways : (set+1)*r.ways]
	from := int(row[way])
	// Promote: everything in [to, from) moves down one. Demote: everything
	// in (from, to] moves up one. The touched way lies in neither range.
	lo, hi := to, from
	if from < to {
		lo, hi = from+1, to+1
	}
	w := 0
	for ; w < r.wide; w += 8 {
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
		if k := int(row[w]); k >= lo && k < hi {
			if from > to {
				row[w]++
			} else {
				row[w]--
			}
		}
	}
	row[way] = uint8(to)
}

// Replace moves the set's least recent way to MRU and returns it: what
// LeastRecent followed by Touch(set, way, 0) does, as an eviction needs,
// in one pass over the set's ranks. Every other way moves down one rank,
// and the victim, at ways-1, would move to ways before it is set to 0, so
// no lane reaches 256 or, where lanes are used, carries.
func (r *Recency) Replace(set int) int {
	row := r.ranks[set*r.ways : (set+1)*r.ways]
	last := uint8(r.ways - 1)
	way := 0
	w := 0
	for ; w < r.wide; w += 8 {
		x := binary.LittleEndian.Uint64(row[w:])
		// The zero-byte test of LeastRecent.
		if z := ^(((x ^ uint64(last)*laneOnes) | laneHighs) - laneOnes) & laneHighs; z != 0 {
			way = w + bits.TrailingZeros64(z)/8
		}
		binary.LittleEndian.PutUint64(row[w:], x+laneOnes)
	}
	for ; w < len(row); w++ {
		if row[w] == last {
			way = w
		}
		row[w]++
	}
	row[way] = 0
	return way
}

// LeastRecent returns the way of the set's rank ways-1: the true-LRU
// victim.
func (r *Recency) LeastRecent(set int) int {
	row := r.ranks[set*r.ways : (set+1)*r.ways]
	last := uint8(r.ways - 1)
	w := 0
	for ; w < r.wide; w += 8 {
		// Lanes equal to last become zero. Setting each lane's high bit
		// and subtracting one clears that bit in exactly the zero lanes,
		// with no borrow between lanes.
		x := binary.LittleEndian.Uint64(row[w:]) ^ uint64(last)*laneOnes
		if z := ^((x | laneHighs) - laneOnes) & laneHighs; z != 0 {
			return w + bits.TrailingZeros64(z)/8
		}
	}
	for ; w < len(row); w++ {
		if row[w] == last {
			return w
		}
	}
	// Unreachable for well-formed stacks.
	panic(fmt.Sprintf("cache: LRU set %d has no rank-%d way", set, r.ways-1))
}
