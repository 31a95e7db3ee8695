package policy

// Exhaustive table-driven coverage of MDPP's 16 placement/promotion
// positions on the paper's 16-way geometry. A block's recency position in
// a PLRU tree is read off its path: each level contributes its
// significance bit when the node points toward the block (so 0 = fully
// protected, 15 = next victim). Position p must touch exactly the level
// set listed in the paper's convention (mask = bit-reversed ^p), leave a
// worst-case block at exactly position p, and in general transform an
// arbitrary prior position q to q AND p — the minimal-disturbance law.

import (
	"testing"

	"mpppb/internal/xrand"
)

// posOf reads way's recency position from the tree with an independent
// root-to-leaf walk (no production helpers).
func posOf(tr *TreePLRU, set, way int) int {
	levels := tr.Levels()
	b := tr.Bits(set)
	pos, n := 0, 1
	for l := 0; l < levels; l++ {
		dir := (way >> uint(levels-1-l)) & 1
		if int((b>>uint(n))&1) == dir { // node points toward the block
			pos |= 1 << uint(levels-1-l)
		}
		n = 2*n + dir
	}
	return pos
}

// mdppLevelTable lists, for every position on a 16-way (4-level) tree,
// exactly which levels a placement/promotion touches (0 = root).
var mdppLevelTable = [16][]int{
	0:  {0, 1, 2, 3},
	1:  {0, 1, 2},
	2:  {0, 1, 3},
	3:  {0, 1},
	4:  {0, 2, 3},
	5:  {0, 2},
	6:  {0, 3},
	7:  {0},
	8:  {1, 2, 3},
	9:  {1, 2},
	10: {1, 3},
	11: {1},
	12: {2, 3},
	13: {2},
	14: {3},
	15: {},
}

// TestMDPPAllSixteenPositionTouchedLevels places every way at every
// position from a zeroed tree and checks the resulting bits against an
// expectation built independently from the level table.
func TestMDPPAllSixteenPositionTouchedLevels(t *testing.T) {
	const ways = 16
	for pos := 0; pos < ways; pos++ {
		touched := map[int]bool{}
		for _, l := range mdppLevelTable[pos] {
			touched[l] = true
		}
		for way := 0; way < ways; way++ {
			m := NewMDPP(1, ways)
			m.PlaceAt(0, way, pos)

			levels := m.Tree().Levels()
			var want uint32
			n := 1
			for l := 0; l < levels; l++ {
				dir := (way >> uint(levels-1-l)) & 1
				if touched[l] && dir == 0 {
					// Pointing away from a left-side block sets the bit;
					// away from a right-side block clears it (already 0).
					want |= 1 << uint(n)
				}
				n = 2*n + dir
			}
			if got := m.Tree().Bits(0); got != want {
				t.Errorf("pos %d way %d: tree bits %#x, want %#x (levels %v)",
					pos, way, got, want, mdppLevelTable[pos])
			}
		}
	}
}

// TestMDPPPlacementLandsAtExactPosition: from the worst case — every node
// on the path pointing at the block (position 15) — placement at p leaves
// the block at exactly recency position p, for all 16 p and all 16 ways.
func TestMDPPPlacementLandsAtExactPosition(t *testing.T) {
	const ways = 16
	for pos := 0; pos < ways; pos++ {
		for way := 0; way < ways; way++ {
			m := NewMDPP(1, ways)
			tr := m.Tree()
			levels := tr.Levels()
			// Point every path node toward `way` by touching, per level,
			// the buddy way that shares the path above that level.
			for l := 0; l < levels; l++ {
				buddy := way ^ (1 << uint(levels-1-l))
				tr.TouchMasked(0, buddy, 1<<uint(l))
			}
			if p := posOf(tr, 0, way); p != ways-1 {
				t.Fatalf("worst-case setup failed for way %d: position %d", way, p)
			}

			m.PlaceAt(0, way, pos)
			if got := posOf(tr, 0, way); got != pos {
				t.Errorf("way %d placed at %d landed at %d", way, pos, got)
			}
		}
	}
}

// TestMDPPMinimalDisturbanceLaw: from arbitrary tree states, promotion to
// position p maps a block at position q to q AND p — touched levels are
// pointed away, untouched levels keep their contribution. In particular a
// promotion never demotes (q AND p <= q).
func TestMDPPMinimalDisturbanceLaw(t *testing.T) {
	const ways = 16
	rng := xrand.New(3)
	for trial := 0; trial < 200; trial++ {
		m := NewMDPP(1, ways)
		tr := m.Tree()
		// Scramble the tree with random full and partial touches.
		for i := 0; i < 12; i++ {
			tr.TouchMasked(0, rng.Intn(ways), uint32(rng.Intn(16)))
		}
		way := rng.Intn(ways)
		pos := rng.Intn(ways)
		before := posOf(tr, 0, way)
		m.PlaceAt(0, way, pos)
		after := posOf(tr, 0, way)
		if after != before&pos {
			t.Fatalf("trial %d: way %d at %d promoted to %d landed at %d, want %d",
				trial, way, before, pos, after, before&pos)
		}
		if after > before {
			t.Fatalf("trial %d: promotion demoted %d -> %d", trial, before, after)
		}
	}
}

// TestMDPPVictimMatchesPositionReadout: the tree's victim is always the
// way whose independently-read recency position is 15 — the two views of
// the direction bits agree.
func TestMDPPVictimMatchesPositionReadout(t *testing.T) {
	const ways = 16
	rng := xrand.New(9)
	m := NewMDPP(4, ways)
	tr := m.Tree()
	for trial := 0; trial < 500; trial++ {
		set := rng.Intn(4)
		m.PlaceAt(set, rng.Intn(ways), rng.Intn(ways))
		v := tr.VictimWay(set)
		if p := posOf(tr, set, v); p != ways-1 {
			t.Fatalf("trial %d: victim way %d at position %d, want %d", trial, v, p, ways-1)
		}
	}
}
