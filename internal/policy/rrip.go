package policy

import (
	"mpppb/internal/cache"
	"mpppb/internal/xrand"
)

// RRPV constants for 2-bit re-reference interval prediction values, as in
// the paper ("SRRIP with two-bit re-reference interval values").
const (
	// RRPVMax is the "distant" re-reference prediction (eviction candidate).
	RRPVMax = 3
	// RRPVLong is the SRRIP insertion value.
	RRPVLong = 2
	// RRPVNear is an intermediate value.
	RRPVNear = 1
	// RRPVImmediate is the most-protected value (assigned on hits).
	RRPVImmediate = 0
)

// SRRIP is static re-reference interval prediction with hit priority
// (Jaleel et al., ISCA 2010): blocks are inserted with a "long" predicted
// re-reference interval and promoted to "immediate" on hits; the victim is
// any block with a "distant" prediction, aging the whole set as needed.
//
// SRRIP is the default multi-core policy under MPPPB (Section 3.7). The
// InsertRRPV field is exported so MPPPB can map predictor confidence to one
// of the four recency levels.
type SRRIP struct {
	ways int
	rrpv []uint8 // sets*ways
	// InsertRRPV is the RRPV given to newly inserted blocks.
	InsertRRPV uint8
	// scanFrom remembers, per set, nothing — victim scans always start at
	// way 0 for determinism.
}

// NewSRRIP constructs SRRIP state with the standard "long" insertion.
func NewSRRIP(sets, ways int) *SRRIP {
	s := &SRRIP{ways: ways, rrpv: make([]uint8, sets*ways), InsertRRPV: RRPVLong}
	for i := range s.rrpv {
		s.rrpv[i] = RRPVMax
	}
	return s
}

// Name implements cache.ReplacementPolicy.
func (s *SRRIP) Name() string { return "srrip" }

// RRPV returns the current re-reference prediction value of (set, way).
func (s *SRRIP) RRPV(set, way int) uint8 { return s.rrpv[set*s.ways+way] }

// SetRRPV sets the RRPV of (set, way). Exposed for MPPPB placement and
// promotion control.
func (s *SRRIP) SetRRPV(set, way int, v uint8) { s.rrpv[set*s.ways+way] = v }

// Hit implements cache.ReplacementPolicy: hit priority promotes to
// "immediate".
func (s *SRRIP) Hit(set, way int, _ cache.Access) { s.rrpv[set*s.ways+way] = RRPVImmediate }

// Victim implements cache.ReplacementPolicy: evict the first block with a
// distant RRPV, aging the set until one exists.
func (s *SRRIP) Victim(set int, _ cache.Access) (int, bool) {
	base := set * s.ways
	for {
		for w := 0; w < s.ways; w++ {
			if s.rrpv[base+w] == RRPVMax {
				return w, false
			}
		}
		for w := 0; w < s.ways; w++ {
			s.rrpv[base+w]++
		}
	}
}

// Fill implements cache.ReplacementPolicy.
func (s *SRRIP) Fill(set, way int, _ cache.Access) { s.rrpv[set*s.ways+way] = s.InsertRRPV }

// Evict implements cache.ReplacementPolicy.
func (s *SRRIP) Evict(int, int, uint64) {}

var _ cache.ReplacementPolicy = (*SRRIP)(nil)

// DRRIP is dynamic RRIP: set-dueling (Qureshi et al.) between SRRIP
// insertion and bimodal insertion (BRRIP, which inserts at "distant" except
// for 1/32 of fills). Leader sets vote through a saturating policy-select
// counter; follower sets use the winning insertion policy. Hits, victims
// and the RRPV array are the embedded SRRIP's; only insertion duels.
type DRRIP struct {
	*SRRIP
	duel *Duel // candidate 0 inserts as SRRIP, candidate 1 as BRRIP
	rng  *xrand.RNG
}

// NewDRRIP constructs DRRIP state.
func NewDRRIP(sets, ways int, seed uint64) *DRRIP {
	return &DRRIP{SRRIP: NewSRRIP(sets, ways), duel: newTwoWayDuel(sets), rng: xrand.New(seed)}
}

// newTwoWayDuel is DRRIP's duel, which DIP shares: 32 leader sets per
// policy in the complement-select layout, voting through a ±512 PSEL.
func newTwoWayDuel(sets int) *Duel {
	return NewDuel(sets, 2, Layout{Leaders: 32}, Rule{Kind: PSEL, Max: 512})
}

// Duel exposes the SRRIP-versus-BRRIP duel for the verification layer.
func (d *DRRIP) Duel() *Duel { return d.duel }

// Name implements cache.ReplacementPolicy.
func (d *DRRIP) Name() string { return "drrip" }

// Fill implements cache.ReplacementPolicy: every fill is a miss and votes
// (a miss in a leader set is a point against its policy); leaders insert
// by their own policy, followers by the winner's.
func (d *DRRIP) Fill(set, way int, _ cache.Access) {
	d.duel.Miss(set)
	v := uint8(RRPVLong)
	// Bimodal: distant except 1 in 32 fills.
	if d.duel.Pick(set) == 1 && d.rng.Intn(32) != 0 {
		v = RRPVMax
	}
	d.SetRRPV(set, way, v)
}

var _ cache.ReplacementPolicy = (*DRRIP)(nil)
