package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
	"mpppb/internal/verify"
	"mpppb/internal/workload"
)

// hookGen is a generator that calls hook once, after at records, from
// the goroutine reading it: a core's capture, between two records.
type hookGen struct {
	trace.Generator
	at, n int
	hook  func()
}

func (g *hookGen) Next(rec *trace.Record) {
	if g.n == g.at {
		g.hook()
	}
	g.n++
	g.Generator.Next(rec)
}

// lane returns the unexported slice a private level keeps under the
// field path given, so a test can corrupt it behind the level's back.
func lane[T any](l *cache.PrivateLevel, path ...string) []T {
	v := reflect.ValueOf(l).Elem()
	for _, f := range path {
		v = v.FieldByName(f)
	}
	return *(*[]T)(unsafe.Pointer(v.UnsafeAddr()))
}

// TestCheckCatchesPrivateLevelCorruption: -check shadows the private
// levels a capture runs, not a copy of them. Mid-run, a corruption of L1
// or L2 behind its back must end the run with a verify.DivergenceError
// naming that level: the most and least recent ways of set 0 trading
// ranks (still a permutation, so only the true-LRU oracle can tell), or a
// valid frame's tag turning into a block of the same set that is not
// resident (only the content model can tell).
func TestCheckCatchesPrivateLevelCorruption(t *testing.T) {
	cfg := SingleThreadConfig()
	cfg.Warmup, cfg.Measure, cfg.Check = 20_000, 60_000, true
	for _, level := range []string{"l1d", "l2"} {
		for _, what := range []string{"rank", "tag"} {
			t.Run(level+"/"+what, func(t *testing.T) {
				gen := &hookGen{Generator: workload.NewGenerator(seg("mcf_like", 0), 0), at: 10_000}
				m := newMachine(cfg, newLRU, true, gen)
				l, l2 := m.caps[0].priv.Levels()
				if level == "l2" {
					l = l2
				}
				ways := l.Ways()
				gen.hook = func() {
					if what == "rank" {
						ranks := lane[uint8](l, "rec", "ranks")
						mru, lru := -1, -1
						for w := 0; w < ways; w++ {
							switch l.Rank(0, w) {
							case 0:
								mru = w
							case ways - 1:
								lru = w
							}
						}
						ranks[mru], ranks[lru] = ranks[lru], ranks[mru]
						return
					}
					tags := lane[uint64](l, "addrs")
					for set := 0; set < l.Sets(); set++ {
						if block, ok := l.BlockAddrAt(set, 0); ok {
							for moved := block + uint64(l.Sets()); ; moved += uint64(l.Sets()) {
								if !l.Contains(moved) {
									tags[set*ways] = moved
									return
								}
							}
						}
					}
					t.Error("no valid frame to corrupt")
				}
				defer func() {
					div, ok := recover().(*verify.DivergenceError)
					if !ok {
						t.Fatal("the corrupted run did not end with a divergence")
					}
					if div.Cache != level {
						t.Fatalf("divergence names %q, want %q: %v", div.Cache, level, div)
					}
					t.Logf("%v", div)
				}()
				m.run(nil, nil)
			})
		}
	}
}
