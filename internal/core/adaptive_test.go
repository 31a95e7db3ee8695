package core

import (
	"reflect"
	"strings"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
)

func TestThresholdSetStringRoundTrip(t *testing.T) {
	orig := ThresholdSet{
		Tau0: 48, Tau1: -98, Tau2: -148, Tau3: -180, Tau4: 112,
		Pi: [3]int{12, 8, 4}, PromotePos: 1,
	}
	got, err := ParseThresholdSet(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip: %+v != %+v (spec %q)", got, orig, orig.String())
	}
}

func TestParseThresholdSetErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"1,2,3",                     // too few fields
		"1,2,3,4,5,6,7,8,9,10",      // too many
		"1,2,x,4,5,6,7,8,9",         // non-integer
		"1.5,2,3,4,5,6,7,8,9",       // float
		"1,2,3,4,5,6,7,8,9;1,2,3,4", // candidate separator in a single set
	} {
		if _, err := ParseThresholdSet(spec); err == nil {
			t.Errorf("ParseThresholdSet(%q) did not fail", spec)
		}
	}
}

func TestParseDuelCandidates(t *testing.T) {
	a := SingleThreadParams().Thresholds()
	b := MultiCoreParams().Thresholds()
	cands, err := ParseDuelCandidates(a.String() + "; " + b.String() + " ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0] != a || cands[1] != b {
		t.Fatalf("parsed %v, want [%v %v]", cands, a, b)
	}
	if _, err := ParseDuelCandidates(" ; "); err == nil {
		t.Fatal("empty duel spec did not fail")
	}
	// One set parses as a threshold set but cannot duel: the spec must
	// fail here, with the cause, not later in NewAdvisor.
	if _, err := ParseDuelCandidates(a.String() + ";"); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("single-set duel spec: err %v, want an 'at least 2' error", err)
	}
}

// TestDefaultDuelCandidatesValid: the default lineup for both machine
// configurations must start at the params' own thresholds and satisfy
// every candidate invariant in the host position space (the far
// candidate maps positions across the MDPP/SRRIP spaces, an easy place
// to produce an out-of-range value).
func TestDefaultDuelCandidatesValid(t *testing.T) {
	for _, p := range []Params{SingleThreadParams(), MultiCoreParams()} {
		cands := DefaultDuelCandidates(p)
		if len(cands) < 2 {
			t.Fatalf("%v: only %d candidates", p.Default, len(cands))
		}
		if cands[0] != p.Thresholds() {
			t.Fatalf("%v: candidate 0 %v is not the params' own thresholds %v", p.Default, cands[0], p.Thresholds())
		}
		maxPos := maxPlacementPosition(p.Default)
		for i, c := range cands {
			if err := c.validate(maxPos); err != nil {
				t.Fatalf("%v: candidate %d invalid: %v", p.Default, i, err)
			}
		}
	}
}

// TestParamsValidate exercises each documented invariant separately.
func TestParamsValidate(t *testing.T) {
	if err := SingleThreadParams().Validate(); err != nil {
		t.Fatalf("default single-thread params invalid: %v", err)
	}
	if err := AdaptiveMultiCoreParams().Validate(); err != nil {
		t.Fatalf("default adaptive params invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
		want   string
	}{
		{"empty features", func(p *Params) { p.Features = nil }, "empty feature set"},
		{"65 features", func(p *Params) {
			p.Features = make([]Feature, MaxFeatures+1)
			for i := range p.Features {
				p.Features[i] = Feature{Kind: KindBias, A: 1 + i%MaxA}
			}
		}, "65 features exceed the limit of 64"},
		{"tau1 <= tau2", func(p *Params) { p.Tau1 = p.Tau2 }, "not descending"},
		{"tau2 <= tau3", func(p *Params) { p.Tau2 = p.Tau3 - 1 }, "not descending"},
		{"pi out of range", func(p *Params) { p.Pi[1] = 16 }, "placement position"},
		{"negative pi", func(p *Params) { p.Pi[0] = -1 }, "placement position"},
		{"promote out of range", func(p *Params) { p.PromotePos = 99 }, "promotion position"},
		{"sampler sets", func(p *Params) { p.SamplerSets = 0 }, "SamplerSets"},
		{"theta", func(p *Params) { p.Theta = 0 }, "Theta"},
		{"cores", func(p *Params) { p.Cores = 0 }, "Cores"},
		{"one duel candidate", func(p *Params) {
			p.Duel = &DuelConfig{Candidates: []ThresholdSet{p.Thresholds()}}
		}, "at least 2 candidates"},
		{"invalid duel candidate", func(p *Params) {
			bad := p.Thresholds()
			bad.Tau3 = bad.Tau1 + 1
			p.Duel = &DuelConfig{Candidates: []ThresholdSet{p.Thresholds(), bad}}
		}, "duel candidate 1"},
		{"duel pselmax", func(p *Params) { p.Duel = &DuelConfig{PselMax: -1} }, "PselMax"},
	}
	for _, c := range cases {
		p := SingleThreadParams()
		c.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate did not fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestNewAdvisorPanicsOnInvalidParams: construction is the enforcement
// point — a mis-ordered config from a search must fail loudly, not make
// placement tiers silently unreachable.
func TestNewAdvisorPanicsOnInvalidParams(t *testing.T) {
	p := SingleThreadParams()
	p.Tau2 = p.Tau1 + 5 // breaks Tau1 > Tau2
	defer func() {
		if recover() == nil {
			t.Fatal("NewAdvisor with non-descending thresholds did not panic")
		}
	}()
	NewAdvisor(64, p)
}

// duelTestParams builds a 2-candidate duel with a tiny window so tests
// can step window boundaries precisely: one group, so exactly one leader
// set per candidate (sets 0 and 1 under the grouped layout).
func duelTestParams(window uint64, pselMax int) Params {
	p := SingleThreadParams()
	alt := p.Thresholds()
	alt.Tau1 += 8
	alt.Tau4 += 8
	p.Duel = &DuelConfig{
		Candidates: []ThresholdSet{p.Thresholds(), alt},
		Groups:     1,
		Window:     window,
		PselMax:    pselMax,
	}
	return p
}

// TestDuelWindowPselAndSwitch steps the advisor's duel through its
// windows: the incumbent opens fully charged, its wins never charge the
// hysteresis past PselMax, a challenger must drain it before taking over,
// and the takeover moves followers, not leaders, to the winner's
// thresholds.
func TestDuelWindowPselAndSwitch(t *testing.T) {
	v := NewAdvisor(64, duelTestParams(4, 2))
	d := v.Duel()
	lead := []int{-1, -1}
	for s := 0; s < 64; s++ {
		if k := d.Leader(s); k >= 0 {
			lead[k] = s
		}
	}
	if lead[0] < 0 || lead[1] < 0 {
		t.Fatalf("missing leader sets: %v", lead)
	}

	// The incumbent opens with full hysteresis: a lucky first window must
	// not be enough to migrate the followers.
	if psel := d.Votes().Psel; psel != 2 {
		t.Fatalf("duel opened with psel %d, want pselMax (2)", psel)
	}

	// Candidate 1's leader misses fill the window: candidate 0 (fewer
	// misses) is the incumbent and wins, charging PSEL toward pselMax —
	// and never past it.
	for w := 0; w < 5; w++ {
		for i := 0; i < 4; i++ {
			v.duelVote(lead[1])
		}
	}
	snap := d.Votes()
	if snap.Winner != 0 || snap.Psel != 2 || snap.Switches != 0 {
		t.Fatalf("after incumbent wins: %+v, want winner 0, psel saturated at 2", snap)
	}
	if snap.Events != 0 || snap.Misses[0] != 0 || snap.Misses[1] != 0 {
		t.Fatalf("window did not reset: %+v", snap)
	}

	// Now candidate 0's leaders miss: the challenger must drain PSEL
	// (2 windows) before the switch lands on the third.
	for w := 0; w < 2; w++ {
		for i := 0; i < 4; i++ {
			v.duelVote(lead[0])
		}
		if snap = d.Votes(); snap.Winner != 0 {
			t.Fatalf("switched with PSEL hysteresis remaining: %+v", snap)
		}
	}
	for i := 0; i < 4; i++ {
		v.duelVote(lead[0])
	}
	if snap = d.Votes(); snap.Winner != 1 || snap.Switches != 1 || snap.Psel != 0 {
		t.Fatalf("challenger did not take over: %+v", snap)
	}

	// Follower sets read the new winner's thresholds; leaders keep their own.
	follower := 0
	for d.Leader(follower) != -1 {
		follower++
	}
	if got := v.thresholdsFor(follower); *got != v.cands[1] {
		t.Fatalf("follower reads %v, want winner candidate 1 %v", *got, v.cands[1])
	}
	if got := v.thresholdsFor(lead[0]); *got != v.cands[0] {
		t.Fatalf("leader 0 reads %v, want its own candidate %v", *got, v.cands[0])
	}
}

// TestDuelVoteIgnoresFollowers: follower misses must not advance the
// window — the duel samples only leader behavior.
func TestDuelVoteIgnoresFollowers(t *testing.T) {
	v := NewAdvisor(64, duelTestParams(2, 1))
	follower := 0
	for v.Duel().Leader(follower) != -1 {
		follower++
	}
	for i := 0; i < 100; i++ {
		v.duelVote(follower)
	}
	if snap := v.Duel().Votes(); snap.Events != 0 {
		t.Fatalf("follower votes advanced the window: %+v", snap)
	}
}

// TestAdaptiveThresholdsFollowWinner pins how adaptive MPPPB maps its duel
// to decisions: leader sets read their own candidate's thresholds,
// followers the winner's, and each winner change is published to the
// mpppb_adaptive_* metrics.
func TestAdaptiveThresholdsFollowWinner(t *testing.T) {
	p := SingleThreadParams()
	alt := p.Thresholds()
	alt.Tau1 += 8
	alt.Tau4 += 8
	// One group (sets 0 and 1 lead), one-miss windows and one level of
	// hysteresis: two windows lost by candidate 0 hand the followers to
	// candidate 1.
	p.Duel = &DuelConfig{Candidates: []ThresholdSet{p.Thresholds(), alt}, Groups: 1, Window: 1, PselMax: 1}
	v := NewAdvisor(64, p)
	switches := v.switchCounter.Value()
	v.duelVote(0)
	v.duelVote(0)
	if w := v.Duel().Winner(); w != 1 {
		t.Fatalf("winner %d after candidate 0 lost two windows, want 1", w)
	}
	if got := *v.thresholdsFor(2); got != alt {
		t.Fatalf("follower reads %v, want the winner's %v", got, alt)
	}
	if got := *v.thresholdsFor(0); got != p.Thresholds() {
		t.Fatalf("candidate 0's leader reads %v, want its own %v", got, p.Thresholds())
	}
	if n := v.switchCounter.Value() - switches; n != 1 || v.winnerGauge.Value() != 1 {
		t.Fatalf("metrics: %d switches counted, winner gauge %d; want 1 and 1", n, v.winnerGauge.Value())
	}
}

// TestAdaptiveAdvisorMirrorsMPPPB extends the decoupling guarantee to
// adaptive mode: the same access stream through the inline adaptive
// policy and a standalone adaptive advisor must leave identical decision
// counters AND identical duel state (winner, PSEL, window position,
// per-candidate miss counts, switch count). This pins the vote-ordering
// rule — exactly one vote per non-writeback miss, taken before any
// threshold read, on both paths.
func TestAdaptiveAdvisorMirrorsMPPPB(t *testing.T) {
	const sets, ways = 64, 4
	params := AdaptiveSingleThreadParams()
	params.SamplerSets = 16

	m := NewMPPPB(sets, ways, params)
	llc := cache.New("llc", sets, ways, m)
	adv := NewAdvisor(sets, params)

	gen := newTestGen(98765)
	var rec trace.Record
	for i := 0; i < 200_000; i++ {
		gen.Next(&rec)
		a := cache.Access{PC: rec.PC, Addr: rec.Addr, Type: trace.Load}
		if rec.IsWrite {
			a.Type = trace.Store
		}
		set := llc.SetIndex(a.Block())
		r := llc.Access(a)
		if r.Hit {
			adv.AdviseHit(a, set)
			continue
		}
		mayBypass := r.Bypassed || r.EvictedValid
		ad := adv.AdviseMiss(a, set, mayBypass)
		if ad.Bypass != r.Bypassed {
			t.Fatalf("access %d: advisor bypass=%v, inline policy bypass=%v", i, ad.Bypass, r.Bypassed)
		}
	}

	if m.Stats() != adv.Stats() {
		t.Fatalf("decision counters diverged:\n  inline  %v\n  advisor %v", m.Stats(), adv.Stats())
	}
	mDuel, aDuel := m.Duel(), adv.Duel()
	if mDuel == nil || aDuel == nil {
		t.Fatalf("duel inactive: inline %v, advisor %v", mDuel != nil, aDuel != nil)
	}
	mVotes, aVotes := mDuel.Votes(), aDuel.Votes()
	if !reflect.DeepEqual(mVotes, aVotes) {
		t.Fatalf("duel state diverged:\n  inline  %+v\n  advisor %+v", mVotes, aVotes)
	}
	if mVotes.Events == 0 && mVotes.Switches == 0 && mVotes.Psel == 0 {
		t.Fatal("degenerate run: the duel never saw a leader miss")
	}
	if err := adv.CheckState(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveName(t *testing.T) {
	m := NewMPPPB(64, 16, AdaptiveSingleThreadParams())
	if got := m.Name(); got != "mpppb-mdpp-adaptive" {
		t.Fatalf("Name() = %q", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
