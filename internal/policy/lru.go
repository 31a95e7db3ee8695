// Package policy implements the baseline replacement policies the paper
// builds on and compares against: true LRU, random, tree-based pseudo-LRU,
// SRRIP and DRRIP (Jaleel et al., ISCA 2010), and static MDPP (Teran et
// al., HPCA 2016), the default policy under single-thread MPPPB.
//
// All policies implement cache.ReplacementPolicy and are constructed for a
// fixed geometry.
package policy

import "mpppb/internal/cache"

// LRU is true least-recently-used replacement. It keeps an explicit recency
// rank per block (0 = MRU) so recency positions can be inspected, which the
// paper's sampler and the MDPP position machinery rely on. The ranks are a
// cache.Recency, the same state and arithmetic the private levels run.
type LRU struct {
	cache.Recency
}

// NewLRU constructs LRU state for the given geometry.
func NewLRU(sets, ways int) *LRU { return &LRU{cache.NewRecency(sets, ways)} }

// Name implements cache.ReplacementPolicy.
func (l *LRU) Name() string { return "lru" }

// Hit implements cache.ReplacementPolicy: promote to MRU.
func (l *LRU) Hit(set, way int, _ cache.Access) { l.Touch(set, way, 0) }

// Victim implements cache.ReplacementPolicy: evict the LRU block.
func (l *LRU) Victim(set int, _ cache.Access) (int, bool) { return l.LeastRecent(set), false }

// Fill implements cache.ReplacementPolicy: insert at MRU.
func (l *LRU) Fill(set, way int, _ cache.Access) { l.Touch(set, way, 0) }

// Evict implements cache.ReplacementPolicy (no action; the subsequent Fill
// re-ranks the frame).
func (l *LRU) Evict(int, int, uint64) {}

var _ cache.ReplacementPolicy = (*LRU)(nil)
