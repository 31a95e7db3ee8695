package verify

import (
	"strings"
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// drive runs deterministic pseudo-random traffic — loads, stores,
// prefetches, writebacks, and occasional invalidates — against a checked
// cache. Any divergence panics (the checker default), failing the test.
func drive(t *testing.T, c *cache.Cache, k *Checker, accesses int, seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	// A small footprint so sets see heavy reuse and eviction pressure.
	footprint := uint64(c.Sets() * c.Ways() * 4)
	for i := 0; i < accesses; i++ {
		block := rng.Uint64() % footprint
		addr := block*trace.BlockSize + uint64(rng.Intn(trace.BlockSize))
		typ := trace.Load
		switch rng.Intn(10) {
		case 0:
			typ = trace.Store
		case 1:
			typ = trace.Prefetch
		case 2:
			typ = trace.Writeback
		}
		a := cache.Access{
			PC:   0x400000 + uint64(rng.Intn(64))*4,
			Addr: addr,
			Type: typ,
			Core: rng.Intn(4),
		}
		c.Access(a)
		if rng.Intn(97) == 0 {
			c.Invalidate(rng.Uint64() % footprint)
		}
	}
	k.Finish()
	if k.Events() == 0 {
		t.Fatal("checker observed no events")
	}
	if k.Divergences() != 0 {
		t.Fatalf("%d divergences", k.Divergences())
	}
}

func TestOracleLRU(t *testing.T) {
	c := cache.New("l1", 16, 8, policy.NewLRU(16, 8))
	drive(t, c, Attach(c), 50_000, 1)
}

func TestOracleSRRIP(t *testing.T) {
	c := cache.New("llc", 32, 8, policy.NewSRRIP(32, 8))
	drive(t, c, Attach(c), 50_000, 2)
}

func TestOraclePLRU(t *testing.T) {
	c := cache.New("llc", 16, 16, policy.NewTreePLRU(16, 16))
	drive(t, c, Attach(c), 50_000, 3)
}

func TestOracleMDPP(t *testing.T) {
	c := cache.New("llc", 16, 16, policy.NewMDPP(16, 16))
	drive(t, c, Attach(c), 50_000, 4)
}

func TestOracleMPPPBOverMDPP(t *testing.T) {
	sets, ways := 64, 16
	c := cache.New("llc", sets, ways, core.NewMPPPB(sets, ways, core.SingleThreadParams()))
	drive(t, c, Attach(c), 80_000, 5)
}

func TestOracleMPPPBOverSRRIP(t *testing.T) {
	sets, ways := 64, 16
	c := cache.New("llc", sets, ways, core.NewMPPPB(sets, ways, core.MultiCoreParams()))
	drive(t, c, Attach(c), 80_000, 6)
}

// TestOracleMPPPBAdaptive runs the lockstep oracle against the adaptive
// (set-dueling) policies: the reference duel must mirror every vote the
// inline policy takes through its Victim/Fill hooks, across both default
// policies and their distinct position spaces.
func TestOracleMPPPBAdaptive(t *testing.T) {
	sets, ways := 64, 16
	c := cache.New("llc", sets, ways, core.NewMPPPB(sets, ways, core.AdaptiveSingleThreadParams()))
	drive(t, c, Attach(c), 80_000, 11)
	c = cache.New("llc", sets, ways, core.NewMPPPB(sets, ways, core.AdaptiveMultiCoreParams()))
	drive(t, c, Attach(c), 80_000, 12)
}

// TestOracleMPPPBNoBypass exercises the Victim→Fill memo path exclusively.
func TestOracleMPPPBNoBypass(t *testing.T) {
	sets, ways := 64, 16
	params := core.SingleThreadParams()
	params.BypassEnabled = false
	c := cache.New("llc", sets, ways, core.NewMPPPB(sets, ways, params))
	drive(t, c, Attach(c), 80_000, 7)
}

// buggyLRU is true LRU with an injected off-by-one: when the set's LRU
// block sits in way 0 it victimizes way 1 instead. The differential oracle
// must catch the first wrong victim with a set-level diff.
type buggyLRU struct {
	*policy.LRU
}

func (b *buggyLRU) Victim(set int, a cache.Access) (int, bool) {
	w, bypass := b.LRU.Victim(set, a)
	if w == 0 {
		w = 1
	}
	return w, bypass
}

func TestOracleCatchesInjectedOffByOne(t *testing.T) {
	sets, ways := 8, 4
	c := cache.New("llc", sets, ways, &buggyLRU{LRU: policy.NewLRU(sets, ways)})
	k := AttachWithLRUOracle(c)
	var got []error
	k.Fail = func(err error) { got = append(got, err) }

	rng := xrand.New(99)
	for i := 0; i < 10_000 && len(got) == 0; i++ {
		block := rng.Uint64() % uint64(sets*ways*4)
		c.Access(cache.Access{PC: 0x1000, Addr: block * trace.BlockSize, Type: trace.Load})
	}
	if len(got) == 0 {
		t.Fatal("oracle did not catch the injected off-by-one victim")
	}
	div, ok := got[0].(*DivergenceError)
	if !ok {
		t.Fatalf("expected *DivergenceError, got %T: %v", got[0], got[0])
	}
	if !strings.Contains(div.Detail, "victim") {
		t.Errorf("divergence detail %q does not name the victim disagreement", div.Detail)
	}
	if !strings.Contains(div.Dump, "reference") {
		t.Errorf("divergence dump %q lacks the reference set state", div.Dump)
	}
	if div.Event == 0 && k.Events() > 0 {
		// Event carries the 0-based access index; just ensure it is within range.
		t.Logf("divergence at first access")
	}
	if div.Event > k.Events() {
		t.Errorf("divergence event %d beyond observed events %d", div.Event, k.Events())
	}
}

// TestOracleCatchesBuggyPromotion injects a wrong hit-promotion RRPV into
// SRRIP via a wrapper and checks the per-set state comparison trips.
type buggySRRIP struct {
	*policy.SRRIP
}

func (b *buggySRRIP) Hit(set, way int, a cache.Access) {
	b.SRRIP.Hit(set, way, a)
	b.SetRRPV(set, way, policy.RRPVNear) // off by one from RRPVImmediate
}

func TestOracleCatchesBuggyPromotion(t *testing.T) {
	sets, ways := 8, 4
	inner := policy.NewSRRIP(sets, ways)
	c := cache.New("llc", sets, ways, &buggySRRIP{SRRIP: inner})
	k := &Checker{c: c, sweepEvery: DefaultSweepEvery}
	var got []error
	k.Fail = func(err error) { got = append(got, err) }
	k.shadow = &shadowPolicy{k: k, inner: c.Policy(), o: newSRRIPOracle(k, inner, sets, ways)}
	k.model = newCacheModel(k, c)
	c.SetPolicy(k.shadow)
	c.SetObserver(k.model)

	rng := xrand.New(7)
	for i := 0; i < 10_000 && len(got) == 0; i++ {
		block := rng.Uint64() % uint64(sets*ways)
		c.Access(cache.Access{PC: 0x1000, Addr: block * trace.BlockSize, Type: trace.Load})
	}
	if len(got) == 0 {
		t.Fatal("oracle did not catch the injected promotion bug")
	}
	if !strings.Contains(got[0].Error(), "rrpv") {
		t.Errorf("divergence %v does not name the RRPV disagreement", got[0])
	}
}

// TestOracleDuelers runs the reference duel in lockstep with every
// fixed-configuration dueler: DIP, DRRIP and dynamic MDPP vote on every
// fill, the hybrids on demand and prefetch victims. 128 sets leave the
// two-way duels followers to steer.
func TestOracleDuelers(t *testing.T) {
	const sets, ways = 128, 16
	for i, tc := range []struct {
		name string
		p    interface {
			cache.ReplacementPolicy
			Duel() *policy.Duel
		}
	}{
		{"dip", policy.NewDIP(sets, ways, 1)},
		{"drrip", policy.NewDRRIP(sets, ways, 1)},
		{"dyn-mdpp", policy.NewDynMDPP(sets, ways)},
		{"hybrid", core.NewHybrid(sets, ways, core.SingleThreadParams())},
		{"hybrid-srrip", core.NewHybrid(sets, ways, core.MultiCoreParams())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cache.New("llc", sets, ways, tc.p)
			k := Attach(c)
			if _, ok := k.shadow.o.(*duelOracle); !ok {
				t.Fatalf("no duel oracle attached to %T", tc.p)
			}
			drive(t, c, k, 60_000, uint64(20+i))
			if v := tc.p.Duel().Votes(); v.Psel == 0 && v.Events == 0 && v.Switches == 0 {
				t.Fatalf("degenerate run: the duel never moved (%+v)", v)
			}
		})
	}
}
