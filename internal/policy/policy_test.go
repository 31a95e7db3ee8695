package policy

import (
	"testing"
	"testing/quick"

	"mpppb/internal/cache"
)

var noAccess = cache.Access{}

func TestLRUInitialRanksWellFormed(t *testing.T) {
	l := NewLRU(4, 8)
	for s := 0; s < 4; s++ {
		seen := make([]bool, 8)
		for w := 0; w < 8; w++ {
			r := l.Rank(s, w)
			if r < 0 || r >= 8 || seen[r] {
				t.Fatalf("set %d: bad initial rank %d for way %d", s, r, w)
			}
			seen[r] = true
		}
	}
}

func TestLRUHitPromotes(t *testing.T) {
	l := NewLRU(1, 4)
	l.Hit(0, 3, noAccess)
	if l.Rank(0, 3) != 0 {
		t.Fatalf("hit way rank = %d, want 0", l.Rank(0, 3))
	}
	// Ranks remain a permutation.
	seen := make([]bool, 4)
	for w := 0; w < 4; w++ {
		seen[l.Rank(0, w)] = true
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d missing after promotion", r)
		}
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	l := NewLRU(1, 4)
	order := []int{2, 0, 3, 1} // touch in this order: way 2 is LRU at the end
	for _, w := range order {
		l.Hit(0, w, noAccess)
	}
	v, bypass := l.Victim(0, noAccess)
	if bypass || v != 2 {
		t.Fatalf("victim = %d (bypass=%v), want 2", v, bypass)
	}
}

func TestLRURanksStayPermutation(t *testing.T) {
	if err := quick.Check(func(touches []uint8) bool {
		l := NewLRU(2, 8)
		for _, tc := range touches {
			set := int(tc>>7) & 1
			way := int(tc) % 8
			if tc%3 == 0 {
				l.Fill(set, way, noAccess)
			} else {
				l.Hit(set, way, noAccess)
			}
		}
		for s := 0; s < 2; s++ {
			seen := make([]bool, 8)
			for w := 0; w < 8; w++ {
				r := l.Rank(s, w)
				if r < 0 || r >= 8 || seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomVictimInRange(t *testing.T) {
	r := NewRandom(8, 1)
	for i := 0; i < 1000; i++ {
		v, bypass := r.Victim(0, noAccess)
		if bypass || v < 0 || v >= 8 {
			t.Fatalf("victim %d out of range", v)
		}
	}
}

func TestTreePLRUVictimAvoidsRecentlyTouched(t *testing.T) {
	p := NewTreePLRU(1, 8)
	// Touch everything, then the victim must not be the most recent.
	for w := 0; w < 8; w++ {
		p.Hit(0, w, noAccess)
	}
	v, _ := p.Victim(0, noAccess)
	if v == 7 {
		t.Fatal("victim is the most recently touched way")
	}
}

func TestTreePLRUSingleTouchProtects(t *testing.T) {
	for w := 0; w < 8; w++ {
		p := NewTreePLRU(1, 8)
		p.Hit(0, w, noAccess)
		if v, _ := p.Victim(0, noAccess); v == w {
			t.Fatalf("way %d victimized immediately after touch", w)
		}
	}
}

func TestTreePLRUCyclicFairness(t *testing.T) {
	// Repeatedly evicting and refilling must cycle through all ways rather
	// than stick on a few.
	p := NewTreePLRU(1, 8)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		v, _ := p.Victim(0, noAccess)
		seen[v] = true
		p.Fill(0, v, noAccess)
	}
	if len(seen) != 8 {
		t.Fatalf("eviction cycle covered %d of 8 ways", len(seen))
	}
}

func TestTreePLRUGeometryValidation(t *testing.T) {
	for _, ways := range []int{3, 0, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTreePLRU with %d ways did not panic", ways)
				}
			}()
			NewTreePLRU(1, ways)
		}()
	}
}

func TestSRRIPInsertionAndPromotion(t *testing.T) {
	s := NewSRRIP(1, 4)
	s.Fill(0, 0, noAccess)
	if got := s.RRPV(0, 0); got != RRPVLong {
		t.Fatalf("insert RRPV = %d, want %d", got, RRPVLong)
	}
	s.Hit(0, 0, noAccess)
	if got := s.RRPV(0, 0); got != RRPVImmediate {
		t.Fatalf("hit RRPV = %d, want 0", got)
	}
}

func TestSRRIPVictimPrefersDistant(t *testing.T) {
	s := NewSRRIP(1, 4)
	for w := 0; w < 4; w++ {
		s.Fill(0, w, noAccess)
	}
	s.SetRRPV(0, 2, RRPVMax)
	v, bypass := s.Victim(0, noAccess)
	if bypass || v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
}

func TestSRRIPAgingConverges(t *testing.T) {
	s := NewSRRIP(1, 4)
	for w := 0; w < 4; w++ {
		s.Fill(0, w, noAccess)
		s.Hit(0, w, noAccess) // all at RRPV 0
	}
	v, _ := s.Victim(0, noAccess)
	if v != 0 {
		t.Fatalf("aged victim = %d, want first way", v)
	}
	// Aging must have advanced everyone to RRPVMax.
	for w := 0; w < 4; w++ {
		if s.RRPV(0, w) != RRPVMax {
			t.Fatalf("way %d RRPV %d after aging", w, s.RRPV(0, w))
		}
	}
}

// leaderCounts tallies a duel's sets by the candidate they lead, -1 for
// the followers.
func leaderCounts(d *Duel, sets int) map[int]int {
	counts := map[int]int{}
	for s := 0; s < sets; s++ {
		counts[d.Leader(s)]++
	}
	return counts
}

func TestDRRIPLeaderAssignment(t *testing.T) {
	const leaders = 32 // per policy
	d := NewDRRIP(2048, 16, 1)
	counts := leaderCounts(d.duel, 2048)
	if counts[0] != leaders || counts[1] != leaders {
		t.Fatalf("leader counts: %v", counts)
	}
	if counts[-1] != 2048-2*leaders {
		t.Fatalf("follower count: %v", counts)
	}
}

func TestDRRIPLeaderAssignmentSmallCaches(t *testing.T) {
	// Regression: the old stride arithmetic degenerated for sets below 32
	// (stride clamped to 1 made every set an SRRIP leader, so PSEL only
	// ever decremented) and miscounted any non-multiple. Every set count
	// >= 2 must get exactly min(32, sets/2) leaders per policy.
	for _, sets := range []int{2, 4, 8, 16, 48, 64, 80, 1024, 2048} {
		d := NewDRRIP(sets, 4, 1)
		counts := leaderCounts(d.duel, sets)
		want := min(32, sets/2)
		if counts[0] != want || counts[1] != want {
			t.Fatalf("sets=%d: leader counts %v, want %d per policy", sets, counts, want)
		}
		if counts[-1] != sets-2*want {
			t.Fatalf("sets=%d: follower count %v", sets, counts)
		}
	}
}

// TestDRRIPDuel pins DRRIP's vote point and how its winner maps to
// insertions: every fill is a miss, so a fill in an SRRIP leader set votes
// against SRRIP and one in a BRRIP leader set against BRRIP; followers
// insert at SRRIP's long RRPV while SRRIP wins and mostly at BRRIP's
// distant one once it loses.
func TestDRRIPDuel(t *testing.T) {
	d := NewDRRIP(128, 4, 1) // stride 4: set 0 leads SRRIP, set 2 BRRIP, set 1 follows
	psel := func() int { return d.duel.Votes().Psel }
	d.Fill(2, 0, noAccess)
	if psel() != 1 {
		t.Fatalf("BRRIP-leader miss left PSEL at %d, want 1", psel())
	}
	d.Fill(1, 0, noAccess)
	if got := d.rrpv[1*4]; got != RRPVLong {
		t.Fatalf("follower inserted at RRPV %d while SRRIP wins, want %d", got, RRPVLong)
	}
	d.Fill(0, 0, noAccess)
	d.Fill(0, 0, noAccess)
	if psel() != -1 {
		t.Fatalf("two SRRIP-leader misses left PSEL at %d, want -1", psel())
	}
	distant := 0
	for i := 0; i < 64; i++ {
		d.Fill(1, 0, noAccess)
		if d.rrpv[1*4] == RRPVMax {
			distant++
		}
	}
	if distant < 48 {
		t.Fatalf("only %d/64 follower fills distant once BRRIP wins", distant)
	}
}

func TestDRRIPSmallCachePSELMovesBothWays(t *testing.T) {
	// On a 4-set cache both leader kinds must exist so DRRIP's fills can
	// move PSEL in both directions.
	d := NewDRRIP(4, 4, 1)
	srrip, brrip := -1, -1
	for s := 0; s < 4; s++ {
		switch d.duel.Leader(s) {
		case 0:
			srrip = s
		case 1:
			brrip = s
		}
	}
	if srrip < 0 || brrip < 0 {
		t.Fatalf("missing leader kinds on 4 sets (srrip=%d brrip=%d)", srrip, brrip)
	}
	d.Fill(srrip, 0, noAccess)
	if psel := d.duel.Votes().Psel; psel != -1 {
		t.Fatalf("SRRIP-leader miss left PSEL at %d, want -1", psel)
	}
	d.Fill(brrip, 0, noAccess)
	d.Fill(brrip, 0, noAccess)
	if psel := d.duel.Votes().Psel; psel != 1 {
		t.Fatalf("two BRRIP-leader misses left PSEL at %d, want 1", psel)
	}
}

func TestDRRIPVictimTerminates(t *testing.T) {
	d := NewDRRIP(4, 4, 1)
	for w := 0; w < 4; w++ {
		d.Fill(2, w, noAccess)
		d.Hit(2, w, noAccess)
	}
	v, bypass := d.Victim(2, noAccess)
	if bypass || v < 0 || v >= 4 {
		t.Fatalf("victim = %d", v)
	}
}

func TestMDPPPositionZeroActsLikeFullPromotion(t *testing.T) {
	m := NewMDPP(1, 16)
	plru := NewTreePLRU(1, 16)
	// Promoting to position 0 must equal classic PLRU touch: same victims.
	seq := []int{3, 7, 1, 15, 8, 0, 12, 7, 3}
	for _, w := range seq {
		m.PromoteAt(0, w, 0)
		plru.Hit(0, w, noAccess)
	}
	mv, _ := m.Victim(0, noAccess)
	pv, _ := plru.Victim(0, noAccess)
	if mv != pv {
		t.Fatalf("MDPP pos-0 victim %d != PLRU victim %d", mv, pv)
	}
}

func TestMDPPPositionLastLeavesTreeUntouched(t *testing.T) {
	m := NewMDPP(1, 16)
	v0, _ := m.Victim(0, noAccess)
	m.PlaceAt(0, (v0+1)%16, 15) // least-protected placement changes nothing
	v1, _ := m.Victim(0, noAccess)
	if v0 != v1 {
		t.Fatalf("position-15 placement disturbed the tree: %d -> %d", v0, v1)
	}
}

func TestMDPPRootBitDominates(t *testing.T) {
	m := NewMDPP(1, 16)
	// Position 7 (mask 1000b inverted = only root) points the root away;
	// the next victim must come from the other half of the set.
	m.PlaceAt(0, 0, 7)
	v, _ := m.Victim(0, noAccess)
	if v < 8 {
		t.Fatalf("root-away placement for way 0 still victimizes same half (way %d)", v)
	}
}

func TestMDPPDefaultRoundTrip(t *testing.T) {
	m := NewMDPP(2, 16)
	if m.Positions() != 16 {
		t.Fatalf("Positions = %d", m.Positions())
	}
	// As a plain policy it must behave sanely: fills and hits never panic
	// and victims stay in range.
	for i := 0; i < 200; i++ {
		w := i % 16
		m.Fill(1, w, noAccess)
		if i%3 == 0 {
			m.Hit(1, w, noAccess)
		}
		v, bypass := m.Victim(1, noAccess)
		if bypass || v < 0 || v >= 16 {
			t.Fatalf("victim %d out of range", v)
		}
	}
}

func TestMDPPProtectionOrdering(t *testing.T) {
	// A block placed at a more protected position should survive at least
	// as long as one placed less protected, measured by evictions under
	// adversarial touches.
	survival := func(pos int) int {
		m := NewMDPP(1, 16)
		m.PlaceAt(0, 5, pos)
		count := 0
		for i := 0; ; i++ {
			v, _ := m.Victim(0, noAccess)
			if v == 5 || count > 100 {
				return count
			}
			m.Fill(0, v, noAccess) // adversary fills the victim frame
			count++
		}
	}
	if survival(0) < survival(15) {
		t.Fatalf("position 0 (%d evictions) less protected than 15 (%d)", survival(0), survival(15))
	}
}

func TestBIPInsertsMostlyAtLRU(t *testing.T) {
	b := NewBIP(1, 8, 1)
	lruCount := 0
	for i := 0; i < 1000; i++ {
		b.Fill(0, 3, noAccess)
		if b.lru.Rank(0, 3) == 7 {
			lruCount++
		}
	}
	if lruCount < 900 {
		t.Fatalf("only %d/1000 fills at LRU position", lruCount)
	}
	if lruCount == 1000 {
		t.Fatal("no MRU insertions at all (epsilon path dead)")
	}
}

// TestDIPDuelsAndFollows pins DIP's vote point and how its winner maps to
// insertions: every fill is a miss, so a fill in an LRU leader set votes
// against LRU and one in a BIP leader set against BIP; followers insert at
// MRU while LRU wins and mostly at the LRU position once BIP does.
func TestDIPDuelsAndFollows(t *testing.T) {
	d := NewDIP(1024, 8, 1)
	lruLeader, bipLeader, follower := -1, -1, -1
	for s := 1023; s >= 0; s-- {
		switch d.duel.Leader(s) {
		case 0:
			lruLeader = s
		case 1:
			bipLeader = s
		default:
			follower = s
		}
	}
	psel := func() int { return d.duel.Votes().Psel }
	d.Fill(bipLeader, 0, noAccess)
	if psel() != 1 {
		t.Fatalf("BIP-leader fill left PSEL at %d, want 1", psel())
	}
	d.Fill(follower, 2, noAccess)
	if d.lru.Rank(follower, 2) != 0 {
		t.Fatal("follower ignored the LRU winner")
	}
	d.Fill(lruLeader, 0, noAccess)
	d.Fill(lruLeader, 0, noAccess)
	if psel() != -1 {
		t.Fatalf("two LRU-leader fills left PSEL at %d, want -1", psel())
	}
	atLRU := 0
	for i := 0; i < 64; i++ {
		d.Fill(follower, 2, noAccess)
		if d.lru.Rank(follower, 2) == 7 {
			atLRU++
		}
	}
	if atLRU < 48 {
		t.Fatalf("only %d/64 follower fills at the LRU position once BIP wins", atLRU)
	}
}

// Regression test for the DIP leader audit: the old modulo layout
// (set%stride selecting leaders) assigned the two policies unequal
// leader counts whenever 32 did not divide the set count, biasing the
// duel toward LRU. The complement-select layout must give both policies
// identical representation at every geometry.
func TestDIPLeaderCountsEqual(t *testing.T) {
	for _, sets := range []int{4, 8, 12, 48, 100, 384, 1000, 2048} {
		counts := leaderCounts(NewDIP(sets, 8, 1).duel, sets)
		if counts[0] != counts[1] || counts[0] == 0 {
			t.Fatalf("sets=%d: unequal leader counts %v", sets, counts)
		}
	}
}

// Regression test for the DIP PSEL audit: the counter must saturate at
// ±Max, not wrap — a wrapped PSEL flips the follower policy at the exact
// moment the evidence for the incumbent is strongest.
func TestDIPPSELSaturates(t *testing.T) {
	d := NewDIP(1024, 8, 1)
	lruLeader, bipLeader := -1, -1
	for s := 1023; s >= 0; s-- {
		switch d.duel.Leader(s) {
		case 0:
			lruLeader = s
		case 1:
			bipLeader = s
		}
	}
	pselMax := d.duel.rule.Max
	psel := func() int { return d.duel.Votes().Psel }
	for i := 0; i < 2*pselMax+10; i++ {
		d.Fill(lruLeader, 0, noAccess)
		if psel() < -pselMax {
			t.Fatalf("PSEL wrapped below -%d: %d", pselMax, psel())
		}
	}
	if psel() != -pselMax {
		t.Fatalf("PSEL did not saturate at -%d: %d", pselMax, psel())
	}
	for i := 0; i < 4*pselMax+10; i++ {
		d.Fill(bipLeader, 0, noAccess)
		if psel() > pselMax {
			t.Fatalf("PSEL wrapped above %d: %d", pselMax, psel())
		}
	}
	if psel() != pselMax {
		t.Fatalf("PSEL did not saturate at %d: %d", pselMax, psel())
	}
}

func TestBIPBeatsLRUOnThrash(t *testing.T) {
	// Cyclic access over ways+1 blocks per set: LRU thrashes, bimodal
	// insertion keeps most of the set resident.
	countMisses := func(pol cache.ReplacementPolicy) int {
		misses := 0
		present := map[uint64]int{} // block -> way
		frames := map[int]uint64{}  // way -> block
		for round := 0; round < 400; round++ {
			for b := uint64(0); b < 9; b++ {
				if w, ok := present[b]; ok {
					pol.Hit(0, w, noAccess)
					continue
				}
				misses++
				w := len(frames)
				if w >= 8 {
					var bypass bool
					w, bypass = pol.Victim(0, noAccess)
					if bypass {
						continue
					}
					delete(present, frames[w])
				}
				frames[w] = b
				present[b] = w
				pol.Fill(0, w, noAccess)
			}
		}
		return misses
	}
	lruMisses := countMisses(NewLRU(1, 8))
	bipMisses := countMisses(NewBIP(1, 8, 7))
	if bipMisses >= lruMisses {
		t.Fatalf("BIP misses %d >= LRU %d on cyclic thrash", bipMisses, lruMisses)
	}
}

// TestDynMDPPLeadersAndDuel pins dynamic MDPP's vote point and how its
// winner maps to positions: fills in candidate 0's leader sets are misses
// against it, another candidate takes over, and followers move to that
// candidate's positions.
func TestDynMDPPLeadersAndDuel(t *testing.T) {
	d := NewDynMDPP(2048, 16)
	follower := 0
	for d.duel.Leader(follower) != -1 {
		follower++
	}
	if got := d.positionsFor(follower); got != d.candidates[0] {
		t.Fatalf("follower runs %v before any vote, want candidate 0 %v", got, d.candidates[0])
	}
	for i := 0; i < 100; i++ {
		d.Fill(0, i%16, noAccess) // set 0 leads candidate 0
	}
	w := d.duel.Winner()
	if w == 0 {
		t.Fatal("candidate 0 still wins despite its leader misses")
	}
	if got := d.positionsFor(follower); got != d.candidates[w] {
		t.Fatalf("follower runs %v, want the winner's %v", got, d.candidates[w])
	}
}

// Regression test for the DynMDPP leader audit: the old modulo layout
// left some candidates with no leader sets at small geometries, so their
// miss counters stayed at zero and they won the duel without ever being
// evaluated. Every candidate must own at least one (equally sized)
// leader group at every geometry large enough to duel.
func TestDynMDPPEveryCandidateHasLeaders(t *testing.T) {
	for _, sets := range []int{8, 12, 16, 24, 48, 64, 100, 256, 2048} {
		d := NewDynMDPP(sets, 16)
		counts := leaderCounts(d.duel, sets)
		for c := range d.candidates {
			if counts[c] == 0 {
				t.Fatalf("sets=%d: candidate %d has no leaders (%v)", sets, c, counts)
			}
			if counts[c] != counts[0] {
				t.Fatalf("sets=%d: unequal leader counts %v", sets, counts)
			}
		}
		if counts[-1] < sets/2 {
			t.Fatalf("sets=%d: only %d followers", sets, counts[-1])
		}
	}
}

// TestDynMDPPDecay: every fill, a follower's too, counts toward the
// halving period, so stale leader misses fade.
func TestDynMDPPDecay(t *testing.T) {
	d := NewDynMDPP(64, 16)
	d.duel.misses[2] = 1000
	d.duel.rule.Period = 4
	follower := 0
	for d.duel.Leader(follower) != -1 {
		follower++
	}
	for i := 0; i < 4; i++ {
		d.Fill(follower, 0, noAccess)
	}
	if m := d.duel.Votes().Misses[2]; m >= 1000 {
		t.Fatalf("miss counters did not decay: %d", m)
	}
}

// TestDynMDPPTinyGeometryFollowsDefault: below two sets per candidate the
// duel has no leaders, and every set runs candidate 0, classic PLRU.
func TestDynMDPPTinyGeometryFollowsDefault(t *testing.T) {
	d := NewDynMDPP(4, 16) // 4 sets < 2*4 candidates: no duel possible
	for s := 0; s < 4; s++ {
		d.Fill(s, 0, noAccess)
		if got := d.positionsFor(s); got != [2]int{0, 0} {
			t.Fatalf("set %d runs %v, want classic PLRU (0, 0)", s, got)
		}
	}
}

func TestDynMDPPVictimInRange(t *testing.T) {
	d := NewDynMDPP(16, 16)
	for i := 0; i < 500; i++ {
		d.Fill(i%16, i%16, noAccess)
		if i%3 == 0 {
			d.Hit(i%16, (i*7)%16, noAccess)
		}
		v, bypass := d.Victim(i%16, noAccess)
		if bypass || v < 0 || v >= 16 {
			t.Fatalf("victim %d", v)
		}
	}
}
