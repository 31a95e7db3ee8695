package verify

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/trace"
)

// TestRefAdvisorLockstep drives a production core.Advisor and the
// reference RefAdvisor with an identical stream of hit/miss advice events
// and requires identical advice on every event plus identical complete
// predictor/sampler state at the end. This is the guarantee the serving
// layer's -check mode rests on.
func TestRefAdvisorLockstep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params core.Params
	}{
		{"single-thread", core.SingleThreadParams()},
		{"multi-core", core.MultiCoreParams()},
		{"adaptive", core.AdaptiveSingleThreadParams()},
		{"adaptive-srrip", core.AdaptiveMultiCoreParams()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sets = 64
			params := tc.params
			params.SamplerSets = 16
			adv := core.NewAdvisor(sets, params)
			ref := NewRefAdvisor(sets, params)

			state := uint64(0x9e3779b97f4a7c15)
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			for i := 0; i < 150_000; i++ {
				r := next()
				a := cache.Access{
					PC:   0x400000 + (r>>40)%64*8,
					Addr: (r >> 8) % (1 << 22) * 64,
					Type: trace.Load,
					Core: int(r>>32) % max(1, params.Cores),
				}
				switch r % 16 {
				case 0:
					a.Type = trace.Store
				case 1:
					a.Type = trace.Writeback
				}
				set := adv.SetFor(a.Block())
				var got, want core.Advice
				if r%3 == 0 {
					got = adv.AdviseHit(a, set)
					want = ref.AdviseHit(a, set)
				} else {
					mayBypass := r%5 != 0
					got = adv.AdviseMiss(a, set, mayBypass)
					want = ref.AdviseMiss(a, set, mayBypass)
				}
				if got != want {
					t.Fatalf("event %d: production advice %+v, reference %+v", i, got, want)
				}
				if i%25_000 == 0 {
					if err := ref.CompareState(adv); err != nil {
						t.Fatalf("event %d: %v", i, err)
					}
				}
			}
			if adv.Bypasses == 0 || adv.TrainEvents == 0 {
				t.Fatalf("degenerate run: bypasses=%d trains=%d", adv.Bypasses, adv.TrainEvents)
			}
			if err := ref.CompareState(adv); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRefAdvisorCatchesDivergence pins that CompareState actually fails
// when production state diverges from the reference.
func TestRefAdvisorCatchesDivergence(t *testing.T) {
	const sets = 64
	params := core.SingleThreadParams()
	params.SamplerSets = 16
	adv := core.NewAdvisor(sets, params)
	ref := NewRefAdvisor(sets, params)

	a := cache.Access{PC: 0x400100, Addr: 0x10000, Type: trace.Load}
	for i := 0; i < 1000; i++ {
		a.Addr = uint64(i%512) * 64
		set := adv.SetFor(a.Block())
		adv.AdviseMiss(a, set, true)
		ref.AdviseMiss(a, set, true)
	}
	if err := ref.CompareState(adv); err != nil {
		t.Fatalf("in-sync state reported divergent: %v", err)
	}
	// Train the production side once more without the reference seeing it.
	adv.AdviseMiss(cache.Access{PC: 0x400999, Addr: 0x0, Type: trace.Load}, 0, true)
	if err := ref.CompareState(adv); err == nil {
		t.Fatal("CompareState missed a diverged production advisor")
	}
}

// TestRefAdvisorCatchesDuelDivergence pins the reference duel's teeth:
// an extra production miss (one unmirrored duel vote) and an adaptive/
// static configuration mismatch must both surface in CompareState.
func TestRefAdvisorCatchesDuelDivergence(t *testing.T) {
	const sets = 64
	params := core.AdaptiveSingleThreadParams()
	params.SamplerSets = 16
	adv := core.NewAdvisor(sets, params)
	ref := NewRefAdvisor(sets, params)

	// Find a duel leader set: only leader misses advance the vote state.
	leader := -1
	for s := 0; s < sets; s++ {
		if adv.Duel().Leader(s) >= 0 {
			leader = s
			break
		}
	}
	if leader < 0 {
		t.Fatal("no duel leader sets")
	}
	a := cache.Access{PC: 0x400100, Addr: 0x10000, Type: trace.Load}
	for i := 0; i < 100; i++ {
		a.Addr = uint64(i) * 64
		adv.AdviseMiss(a, leader, true)
		ref.AdviseMiss(a, leader, true)
	}
	if err := ref.CompareState(adv); err != nil {
		t.Fatalf("in-sync duel reported divergent: %v", err)
	}
	// One production-only miss in a leader set: predictor AND duel state
	// drift. The reference must notice even before a window boundary.
	adv.AdviseMiss(cache.Access{PC: 0x400999, Addr: 0xabc0, Type: trace.Load}, leader, true)
	if err := ref.CompareState(adv); err == nil {
		t.Fatal("CompareState missed an unmirrored duel vote")
	}

	// A reference built without the duel must refuse an adaptive advisor
	// outright (and vice versa), not silently skip the duel comparison.
	static := core.SingleThreadParams()
	static.SamplerSets = 16
	if err := NewRefAdvisor(sets, static).CompareState(adv); err == nil {
		t.Fatal("static reference accepted an adaptive production advisor")
	}
	staticAdv := core.NewAdvisor(sets, static)
	if err := ref.CompareState(staticAdv); err == nil {
		t.Fatal("adaptive reference accepted a static production advisor")
	}
}
