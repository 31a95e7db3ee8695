package policy

import (
	"mpppb/internal/cache"
	"mpppb/internal/xrand"
)

// BIP is bimodal insertion (Qureshi et al., ISCA 2007): blocks insert at
// the LRU position except for a small fraction inserted at MRU, protecting
// the cache from thrashing working sets while letting a trickle of new
// blocks establish themselves.
type BIP struct {
	lru *LRU
	// Epsilon is the 1-in-N rate of MRU insertions.
	Epsilon int
	ways    int
	rng     *xrand.RNG
}

// NewBIP constructs bimodal insertion with the conventional 1/32 rate.
func NewBIP(sets, ways int, seed uint64) *BIP {
	return &BIP{lru: NewLRU(sets, ways), Epsilon: 32, ways: ways, rng: xrand.New(seed)}
}

// Name implements cache.ReplacementPolicy.
func (b *BIP) Name() string { return "bip" }

// Hit implements cache.ReplacementPolicy.
func (b *BIP) Hit(set, way int, a cache.Access) { b.lru.Hit(set, way, a) }

// Victim implements cache.ReplacementPolicy.
func (b *BIP) Victim(set int, a cache.Access) (int, bool) { return b.lru.Victim(set, a) }

// Fill implements cache.ReplacementPolicy: LRU-position insertion except
// one in Epsilon fills.
func (b *BIP) Fill(set, way int, a cache.Access) {
	if b.rng.Intn(b.Epsilon) == 0 {
		b.lru.Touch(set, way, 0)
	} else {
		b.lru.Touch(set, way, b.ways-1)
	}
}

// Evict implements cache.ReplacementPolicy.
func (b *BIP) Evict(int, int, uint64) {}

var _ cache.ReplacementPolicy = (*BIP)(nil)

// DIP is dynamic insertion policy (Qureshi et al., ISCA 2007): set-dueling
// between LRU insertion and BIP, the mechanism the paper's DRRIP also uses
// (citation [23]). Included as a further baseline: DIP defeats thrashing
// without any prediction structures at all. Hits, victims and bimodal
// fills are the embedded BIP's.
type DIP struct {
	*BIP
	duel *Duel // candidate 0 inserts at MRU (LRU), candidate 1 bimodally (BIP)
}

// NewDIP constructs DIP with DRRIP's duel (newTwoWayDuel).
func NewDIP(sets, ways int, seed uint64) *DIP {
	return &DIP{BIP: NewBIP(sets, ways, seed), duel: newTwoWayDuel(sets)}
}

// Duel exposes the LRU-versus-BIP duel for the verification layer.
func (d *DIP) Duel() *Duel { return d.duel }

// Name implements cache.ReplacementPolicy.
func (d *DIP) Name() string { return "dip" }

// Fill implements cache.ReplacementPolicy: every fill is a miss and votes;
// leaders insert by their own policy, followers by the winner's. Only a
// bimodal fill draws from the RNG.
func (d *DIP) Fill(set, way int, a cache.Access) {
	d.duel.Miss(set)
	if d.duel.Pick(set) == 0 {
		d.lru.Touch(set, way, 0)
	} else {
		d.BIP.Fill(set, way, a)
	}
}

var _ cache.ReplacementPolicy = (*DIP)(nil)
