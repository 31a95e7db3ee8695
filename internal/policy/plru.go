package policy

import (
	"fmt"

	"mpppb/internal/cache"
)

// TreePLRU is tree-based pseudo-LRU: ways-1 direction bits per set arranged
// as a binary tree. Each internal node's bit points toward the subtree that
// should be victimized next. A touch flips the bits on the block's root-to-
// leaf path to point away from the block.
//
// TreePLRU is the substrate for MDPP (see MDPP), which generalizes the
// "flip every bit on the path" rule into per-level placement and promotion
// masks.
type TreePLRU struct {
	ways   int
	levels int
	// bits[set] packs the tree nodes in heap order: node 1 is the root,
	// node i has children 2i and 2i+1; bit value 1 means "victim is in
	// the right subtree".
	bits []uint32

	// touch[way<<levels | mask] holds the precomputed effect of
	// TouchMasked(way, mask): which node bits to set (point right, away
	// from a block in the left subtree) and which to clear. The touched
	// nodes and their away-directions depend only on (way, mask), so the
	// per-level path walk runs once per combination at construction and
	// the per-access update is two boolean ops on the set's word.
	touch []touchEffect
}

// touchEffect is one precomputed TouchMasked update: bits to set and clear.
type touchEffect struct {
	set uint32
	clr uint32
}

// CheckTreePLRUWays returns why tree PLRU (and so MDPP) cannot be built
// with the given number of ways, or nil when it can.
func CheckTreePLRUWays(ways int) error {
	if ways&(ways-1) != 0 || ways < 2 || ways > 32 {
		return fmt.Errorf("tree PLRU requires power-of-two ways in [2,32], got %d", ways)
	}
	return nil
}

// NewTreePLRU constructs tree PLRU state. ways must pass
// CheckTreePLRUWays.
func NewTreePLRU(sets, ways int) *TreePLRU {
	if err := CheckTreePLRUWays(ways); err != nil {
		panic("policy: " + err.Error())
	}
	levels := 0
	for 1<<levels < ways {
		levels++
	}
	t := &TreePLRU{ways: ways, levels: levels, bits: make([]uint32, sets)}
	t.touch = make([]touchEffect, ways<<uint(levels))
	for way := 0; way < ways; way++ {
		for mask := 0; mask < 1<<uint(levels); mask++ {
			var e touchEffect
			for l := 0; l < levels; l++ {
				if mask&(1<<uint(l)) == 0 {
					continue
				}
				n := t.node(way, l)
				if 1-t.directionAt(way, l) == 1 {
					e.set |= 1 << uint(n)
				} else {
					e.clr |= 1 << uint(n)
				}
			}
			t.touch[way<<uint(levels)|mask] = e
		}
	}
	return t
}

// Levels returns the tree depth (log2 of the associativity).
func (t *TreePLRU) Levels() int { return t.levels }

// Bits returns the packed direction bits of one set's tree (heap order,
// node 1 is the root). Exposed for the differential-oracle verification
// layer, which compares the production tree against a naive reference
// after every hook.
func (t *TreePLRU) Bits(set int) uint32 { return t.bits[set] }

// Ways returns the associativity.
func (t *TreePLRU) Ways() int { return t.ways }

// node returns the heap index of the level-l node on the path to way.
// Level 0 is the root.
func (t *TreePLRU) node(way, l int) int {
	// The path to `way` visits, at level l, the node whose index is
	// (way >> (levels-l)) + 2^l in heap order.
	return (way >> uint(t.levels-l)) + (1 << uint(l))
}

// directionAt returns which child (0=left, 1=right) the path to way takes
// from its level-l node.
func (t *TreePLRU) directionAt(way, l int) uint32 {
	return uint32(way>>uint(t.levels-1-l)) & 1
}

// TouchMasked updates the path bits for (set, way). For each level l
// (0 = root), if bit l of mask is set, the node at that level is pointed
// away from the block; unmasked levels are left undisturbed. A full touch
// (classic PLRU promotion) is TouchMasked with all mask bits set.
func (t *TreePLRU) TouchMasked(set, way int, mask uint32) {
	e := &t.touch[way<<uint(t.levels)|int(mask&uint32(1<<uint(t.levels)-1))]
	t.bits[set] = t.bits[set]&^e.clr | e.set
}

// FullMask returns the mask that touches every level.
func (t *TreePLRU) FullMask() uint32 { return (1 << uint(t.levels)) - 1 }

// VictimWay walks the tree from the root following the direction bits and
// returns the victim way.
func (t *TreePLRU) VictimWay(set int) int {
	b := t.bits[set]
	n := 1
	for l := 0; l < t.levels; l++ {
		dir := (b >> uint(n)) & 1
		n = 2*n + int(dir)
	}
	return n - t.ways
}

// Name implements cache.ReplacementPolicy.
func (t *TreePLRU) Name() string { return "plru" }

// Hit implements cache.ReplacementPolicy: full promotion.
func (t *TreePLRU) Hit(set, way int, _ cache.Access) { t.TouchMasked(set, way, t.FullMask()) }

// Victim implements cache.ReplacementPolicy.
func (t *TreePLRU) Victim(set int, _ cache.Access) (int, bool) { return t.VictimWay(set), false }

// Fill implements cache.ReplacementPolicy: full promotion on insert.
func (t *TreePLRU) Fill(set, way int, _ cache.Access) { t.TouchMasked(set, way, t.FullMask()) }

// Evict implements cache.ReplacementPolicy.
func (t *TreePLRU) Evict(int, int, uint64) {}

var _ cache.ReplacementPolicy = (*TreePLRU)(nil)

// MDPP is static Minimal Disturbance Placement and Promotion (Teran et al.,
// HPCA 2016): tree PLRU where placement and promotion each update only a
// configured subset of the levels on the block's path. With a 16-way cache
// this yields 16 distinct recency positions at a cost of 15 bits per set,
// which is the default single-thread policy under MPPPB in the paper
// (Section 3.7).
//
// Positions are numbered 0 (most protected, all levels pointed away — the
// classic PLRU MRU insertion) through ways-1 (least protected, no levels
// disturbed). Position p uses level mask ^p: the bit for the root is the
// most significant, since pointing the root away protects the block from
// half of all evictions.
type MDPP struct {
	tree *TreePLRU
	// posMask[pos] caches maskFor(pos) for the in-range positions, so the
	// per-access PlaceAt skips the bit-reversal loop.
	posMask []uint32
	// PlacePos is the recency position used for newly inserted blocks.
	PlacePos int
	// PromotePos is the recency position used on hits.
	PromotePos int
}

// DefaultMDPPPlacePos and DefaultMDPPPromotePos are the static positions
// used when MDPP runs standalone. Placement protects all levels below the
// root (position 8), giving new blocks a grace period without immediately
// displacing established ones; promotion is full (position 0).
const (
	DefaultMDPPPlacePos   = 8
	DefaultMDPPPromotePos = 0
)

// NewMDPP constructs static MDPP for the geometry with default positions.
func NewMDPP(sets, ways int) *MDPP {
	m := &MDPP{
		tree:       NewTreePLRU(sets, ways),
		PlacePos:   DefaultMDPPPlacePos,
		PromotePos: DefaultMDPPPromotePos,
	}
	m.posMask = make([]uint32, ways)
	for pos := range m.posMask {
		m.posMask[pos] = m.maskFor(pos)
	}
	return m
}

// Positions returns the number of distinct recency positions (== ways).
func (m *MDPP) Positions() int { return m.tree.ways }

// Tree exposes the underlying PLRU tree for the verification layer.
func (m *MDPP) Tree() *TreePLRU { return m.tree }

// maskFor converts a position to a per-level touch mask. The mask's
// level-0 (root) bit comes from the position's most significant bit so
// position ordering tracks protection strength.
func (m *MDPP) maskFor(pos int) uint32 {
	levels := m.tree.levels
	inv := uint32(^pos) & ((1 << uint(levels)) - 1)
	// inv bit (levels-1) corresponds to the root (level 0): reverse it in.
	var mask uint32
	for l := 0; l < levels; l++ {
		if inv&(1<<uint(levels-1-l)) != 0 {
			mask |= 1 << uint(l)
		}
	}
	return mask
}

// PlaceAt inserts or promotes (set, way) to an explicit recency position.
// Exposed for MPPPB, which maps predictor confidence to placement
// positions π1..π3 and to its promotion position.
func (m *MDPP) PlaceAt(set, way, pos int) { m.tree.TouchMasked(set, way, m.mask(pos)) }

// mask returns the cached touch mask for a position, computing it only for
// out-of-range positions.
func (m *MDPP) mask(pos int) uint32 {
	if uint(pos) < uint(len(m.posMask)) {
		return m.posMask[pos]
	}
	return m.maskFor(pos)
}

// VictimWay exposes the underlying PLRU victim choice.
func (m *MDPP) VictimWay(set int) int { return m.tree.VictimWay(set) }

// Name implements cache.ReplacementPolicy.
func (m *MDPP) Name() string { return "mdpp" }

// Hit implements cache.ReplacementPolicy.
func (m *MDPP) Hit(set, way int, _ cache.Access) { m.PlaceAt(set, way, m.PromotePos) }

// Victim implements cache.ReplacementPolicy.
func (m *MDPP) Victim(set int, _ cache.Access) (int, bool) { return m.tree.VictimWay(set), false }

// Fill implements cache.ReplacementPolicy.
func (m *MDPP) Fill(set, way int, _ cache.Access) { m.PlaceAt(set, way, m.PlacePos) }

// Evict implements cache.ReplacementPolicy.
func (m *MDPP) Evict(int, int, uint64) {}

var _ cache.ReplacementPolicy = (*MDPP)(nil)
