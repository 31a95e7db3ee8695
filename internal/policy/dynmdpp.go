package policy

import (
	"mpppb/internal/cache"
)

// DynMDPP is the adaptive variant of MDPP sketched in Teran et al. (HPCA
// 2016), the default-policy citation [27] of the paper: several candidate
// placement/promotion position pairs duel via dedicated leader sets, and
// follower sets use the pair whose leaders miss least. The paper itself
// uses *static* MDPP ("static MDPP uses tree-based pseudoLRU with an
// enhanced promotion policy"); the dynamic variant ships here as an extra
// baseline and as the natural ablation of that choice.
type DynMDPP struct {
	mdpp *MDPP // the tree and its position masks; its static positions go unused
	// candidates are (place, promote) position pairs under duel.
	candidates [][2]int
	// duel picks a pair per set: up to 64 leader groups of one set per
	// candidate, and miss counters halved every 8192 fills so the duel
	// tracks phase changes.
	duel *Duel
}

// NewDynMDPP constructs the adaptive policy with a conventional candidate
// spread: full-insert/full-promote (classic PLRU), guarded insertion, and
// near-LRU insertion. Caches with fewer than two sets per candidate have
// no leaders and run classic PLRU.
func NewDynMDPP(sets, ways int) *DynMDPP {
	candidates := [][2]int{
		{0, 0},               // classic PLRU
		{ways / 2, 0},        // guarded insertion, full promotion
		{ways - 1, 0},        // LRU-like insertion, full promotion
		{ways / 2, ways / 4}, // guarded insertion and promotion
	}
	return &DynMDPP{
		mdpp:       NewMDPP(sets, ways),
		candidates: candidates,
		duel:       NewDuel(sets, len(candidates), Layout{Grouped: true, Leaders: 64}, Rule{Kind: Decay, Period: 8192}),
	}
}

// Duel exposes the position-pair duel for the verification layer.
func (d *DynMDPP) Duel() *Duel { return d.duel }

// positionsFor picks the active (place, promote) pair for a set.
func (d *DynMDPP) positionsFor(set int) [2]int { return d.candidates[d.duel.Pick(set)] }

// Name implements cache.ReplacementPolicy.
func (d *DynMDPP) Name() string { return "dyn-mdpp" }

// Hit implements cache.ReplacementPolicy.
func (d *DynMDPP) Hit(set, way int, _ cache.Access) {
	d.mdpp.PlaceAt(set, way, d.positionsFor(set)[1])
}

// Victim implements cache.ReplacementPolicy.
func (d *DynMDPP) Victim(set int, _ cache.Access) (int, bool) {
	return d.mdpp.VictimWay(set), false
}

// Fill implements cache.ReplacementPolicy: every fill is a miss and votes.
func (d *DynMDPP) Fill(set, way int, _ cache.Access) {
	d.duel.Miss(set)
	d.mdpp.PlaceAt(set, way, d.positionsFor(set)[0])
}

// Evict implements cache.ReplacementPolicy.
func (d *DynMDPP) Evict(int, int, uint64) {}

var _ cache.ReplacementPolicy = (*DynMDPP)(nil)
