package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// TestCaptureReplayMatchesReference: every registry policy's run through
// capture and replay equals the serial reference machine, with -check off
// and on, for every driver: timed one-core and four-core runs, the
// untimed RunFastMPKI, RunROC's samples for the policies that report
// confidences, and RunSingleMIN. The reference's L1 and L2 are generic
// caches under policy.LRU, so this is also the differential test of the
// private levels (cache.PrivateLevel) a capture runs.
func TestCaptureReplayMatchesReference(t *testing.T) {
	st, mc := SingleThreadConfig(), MultiCoreConfig()
	st.Warmup, st.Measure = 10_000, 40_000
	mc.Warmup, mc.Measure = 10_000, 30_000
	mix := workload.Mixes(1, workload.DefaultMixSeed)[0]
	gen := workload.NewGenerator(seg("mcf_like", 0), 0)
	stream := workload.NewGenerator(seg("lbm_like", 1), 0)
	for _, check := range []bool{false, true} {
		st.Check, mc.Check = check, check
		for _, name := range PolicyNames() {
			t.Run(fmt.Sprintf("%s/check=%v", name, check), func(t *testing.T) {
				pf, err := Policy(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range []trace.Generator{gen, stream} {
					if got, want := RunSingle(st, g, pf).Deterministic(), refRunSingle(st, g, pf); got != want {
						t.Errorf("RunSingle:\n got %+v\nwant %+v", got, want)
					}
				}
				if got, want := RunFastMPKI(st, gen, pf).Deterministic(), refRunFastMPKI(st, gen, pf); got != want {
					t.Errorf("RunFastMPKI:\n got %+v\nwant %+v", got, want)
				}
				if got, want := RunMulti(mc, mix, pf), refRunMulti(mc, mix, pf); got != want {
					t.Errorf("RunMulti:\n got %+v\nwant %+v", got, want)
				}
				if cf, err := Confidence(name); err == nil {
					if got, want := RunROC(st, gen, cf), refRunROC(st, gen, cf); !slices.Equal(got, want) {
						t.Errorf("RunROC: %d samples, want %d, or they differ", len(got), len(want))
					}
				}
			})
		}
		lru, min := RunSingleMIN(st, gen)
		refLRU, refMIN := refRunSingleMIN(st, gen)
		if lru.Deterministic() != refLRU || min.Deterministic() != refMIN {
			t.Errorf("RunSingleMIN check=%v:\n got %+v %+v\nwant %+v %+v", check, lru, min, refLRU, refMIN)
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall to
// want: a joined capture has returned, but the runtime may not yet have
// retired its goroutine.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the call, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// panicAfter is LRU that panics on its nth fill: a replay-side panic.
type panicAfter struct {
	*policy.LRU
	n int
}

func (p *panicAfter) Fill(set, way int, a cache.Access) {
	if p.n--; p.n == 0 {
		panic("policy gave up")
	}
	p.LRU.Fill(set, way, a)
}

// recovered runs fn and returns what it panicked with.
func recovered(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestNoGoroutineOutlivesARun: after a driver returns, and after it
// panics on either side of the split, the goroutine count is back to its
// value before the call.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	cfg := exhaustCfg()
	lru, _ := Policy("lru")
	mc := MultiCoreConfig()
	mc.Warmup, mc.Measure = 10_000, 20_000
	mix := workload.Mixes(1, workload.DefaultMixSeed)[0]
	failing := func(sets, ways int) cache.ReplacementPolicy {
		return &panicAfter{LRU: policy.NewLRU(sets, ways), n: 500}
	}
	for _, tc := range []struct {
		name  string
		run   func()
		panic string
	}{
		{"single", func() { RunSingle(cfg, workload.NewGenerator(seg("gcc_like", 0), 0), lru) }, ""},
		{"fast", func() { RunFastMPKI(cfg, workload.NewGenerator(seg("gcc_like", 0), 0), lru) }, ""},
		{"multi", func() { RunMulti(mc, mix, lru) }, ""},
		{"capture-panics", func() { RunSingle(cfg, &finiteGen{limit: 1000}, lru) }, "exhausted"},
		{"replay-panics", func() { RunFastMPKI(cfg, workload.NewGenerator(seg("gcc_like", 0), 0), failing) }, "policy gave up"},
		{"multi-replay-panics", func() { RunMulti(mc, mix, failing) }, "policy gave up"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			v := recovered(tc.run)
			if msg := fmt.Sprint(v); (v == nil) != (tc.panic == "") || !strings.Contains(msg, tc.panic) {
				t.Fatalf("run panicked with %v, want %q", v, tc.panic)
			}
			waitGoroutines(t, before)
		})
	}
}

// slowGen delivers a workload generator's records slowly and counts
// them, so its capture is mid-block whenever the replay stops.
type slowGen struct {
	trace.Generator
	read atomic.Int64
}

func (g *slowGen) NextBatch(recs []trace.Record) int {
	time.Sleep(200 * time.Microsecond)
	for i := range recs {
		g.Generator.Next(&recs[i])
	}
	g.read.Add(int64(len(recs)))
	return len(recs)
}

// TestPanickedRunJoinsItsCapture: when the replay panics, the call joins
// the capture before it returns, so nothing reads the generator after
// it; a caller may reset the generator and run it again at once.
func TestPanickedRunJoinsItsCapture(t *testing.T) {
	g := &slowGen{Generator: workload.NewGenerator(seg("gcc_like", 0), 0)}
	failing := func(sets, ways int) cache.ReplacementPolicy {
		return &panicAfter{LRU: policy.NewLRU(sets, ways), n: 2000}
	}
	if v := recovered(func() { RunFastMPKI(exhaustCfg(), g, failing) }); v != "policy gave up" {
		t.Fatalf("run panicked with %v", v)
	}
	read := g.read.Load()
	time.Sleep(20 * time.Millisecond)
	if now := g.read.Load(); now != read {
		t.Fatalf("the generator delivered %d records after the run returned", now-read)
	}
}

// TestExactRecordsComplete: a source holding exactly the records a lone
// core's run reads completes every driver; one record fewer panics with
// the exhaustion message on the caller's goroutine. finiteGen's records
// retire 4 instructions each.
func TestExactRecordsComplete(t *testing.T) {
	cfg := exhaustCfg()
	need := int(cfg.Warmup+3)/4 + int(cfg.Measure+3)/4
	lru, _ := Policy("lru")
	cf, _ := Confidence("mpppb")
	drivers := map[string]func(g trace.Generator){
		"single": func(g trace.Generator) { RunSingle(cfg, g, lru) },
		"fast":   func(g trace.Generator) { RunFastMPKI(cfg, g, lru) },
		"roc":    func(g trace.Generator) { RunROC(cfg, g, cf) },
	}
	for name, run := range drivers {
		t.Run(name, func(t *testing.T) {
			g := &finiteGen{limit: need}
			if v := recovered(func() { run(g) }); v != nil {
				t.Fatalf("a source with exactly the records the run reads failed it: %v", v)
			}
			if g.pos != need {
				t.Fatalf("the run read %d records, want %d", g.pos, need)
			}
			wantExhaustPanic(t, func() { run(&finiteGen{limit: need - 1}) })
		})
	}
}

// panicGen is a workload generator whose NextBatch panics on its third
// call.
type panicGen struct {
	trace.Generator
	calls int
}

func (g *panicGen) NextBatch(recs []trace.Record) int {
	if g.calls++; g.calls == 3 {
		panic("the source broke")
	}
	for i := range recs {
		g.Generator.Next(&recs[i])
	}
	return len(recs)
}

// TestGeneratorPanicReachesCaller: a panic inside a capture, here the
// generator's, is re-raised on the caller's goroutine with its value.
func TestGeneratorPanicReachesCaller(t *testing.T) {
	lru, _ := Policy("lru")
	g := &panicGen{Generator: workload.NewGenerator(seg("gcc_like", 0), 0)}
	if v := recovered(func() { RunSingle(exhaustCfg(), g, lru) }); v != "the source broke" {
		t.Fatalf("run panicked with %v, want the generator's panic", v)
	}
}

// TestCellAllocationsDoNotGrow: a cell allocates its buffers once, so
// its allocations do not grow with its measured length. The longer cell
// hands over about fifty more blocks; the margin of a few allocations
// absorbs what other goroutines of the test process allocate meanwhile.
func TestCellAllocationsDoNotGrow(t *testing.T) {
	lru, _ := Policy("lru")
	gen := workload.NewGenerator(seg("mcf_like", 0), 0)
	allocs := func(measure uint64) float64 {
		cfg := SingleThreadConfig()
		cfg.Warmup, cfg.Measure = 20_000, measure
		return testing.AllocsPerRun(3, func() { RunSingle(cfg, gen, lru) })
	}
	if short, long := allocs(100_000), allocs(400_000); long > short+4 {
		t.Fatalf("a cell allocates %v times at 100k instructions and %v at 400k", short, long)
	}
}
