// Package sim contains the simulation drivers: single-thread runs with the
// timing model, multi-programmed 4-core runs with a shared LLC, a fast
// MPKI-only mode for feature search, and a measurement-only mode that
// extracts predictor ROC samples without letting predictions steer the
// cache (Section 6.3). All four run one simulated machine (machine.go).
package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mpppb/internal/cache"
	"mpppb/internal/cpu"
	"mpppb/internal/trace"
)

// Config describes one simulated machine, following Section 4.1 of the
// paper: 32KB 8-way L1D, 256KB 8-way L2, 2MB (single-thread) or 8MB
// (multi-programmed) 16-way LLC, 200-cycle DRAM, 4-wide 128-entry-window
// core, stream prefetcher.
type Config struct {
	L1Size, L1Ways   int
	L2Size, L2Ways   int
	LLCSize, LLCWays int
	Lat              cache.Latencies
	CPU              cpu.Config
	// Prefetch enables the stream prefetcher.
	Prefetch bool
	// Warmup is the number of instructions used to warm microarchitectural
	// state before measurement begins.
	Warmup uint64
	// Measure is the number of instructions measured after warmup.
	Measure uint64
	// Check attaches the lockstep verification layer (internal/verify) to
	// every cache in the hierarchy: a naive reference cache model plus a
	// reference implementation of the replacement policy, compared after
	// every access. A divergence panics with the access index and a dump
	// of the affected set. Roughly an order of magnitude slower; exposed
	// as -check on the cmd tools.
	Check bool
}

// Scaled-down defaults: the paper warms with 500M and measures 1B
// instructions per simpoint; this repository defaults to sizes that keep
// the full experiment suite tractable while still cycling the LLC contents
// many times over. The cmd tools accept flags to raise them.
const (
	DefaultWarmup  = 2_000_000
	DefaultMeasure = 8_000_000
)

// SingleThreadConfig returns the single-thread machine (2MB LLC).
func SingleThreadConfig() Config {
	return Config{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		LLCSize: 2 << 20, LLCWays: 16,
		Lat:      cache.DefaultLatencies(),
		CPU:      cpu.DefaultConfig(),
		Prefetch: true,
		Warmup:   DefaultWarmup,
		Measure:  DefaultMeasure,
	}
}

// MultiCoreConfig returns the 4-core machine (8MB shared LLC).
func MultiCoreConfig() Config {
	c := SingleThreadConfig()
	c.LLCSize = 8 << 20
	return c
}

// PolicyFactory constructs an LLC replacement policy for a geometry.
type PolicyFactory func(sets, ways int) cache.ReplacementPolicy

// Result summarizes a single-thread run.
type Result struct {
	Segment      string
	Instructions uint64
	Cycles       uint64
	IPC          float64
	// LLC statistics over the measurement window (demand + prefetch, the
	// paper-style MPKI accounting; writebacks excluded).
	LLCAccesses uint64
	LLCMisses   uint64
	MPKI        float64
	// Bypasses counts fills declined by the policy.
	Bypasses uint64
	// Throughput diagnostics for the measurement phase: wall-clock
	// seconds, simulated LLC accesses per wall-clock second, and heap
	// allocations per LLC access. The allocation figure is derived from
	// the process-wide malloc counter, which is only attributable to this
	// run when no other measurement overlaps it — under a parallel sweep
	// (-j > 1) neighbors' allocations would inflate it, so overlapping
	// runs report AllocsPerAccess = -1 ("not measured") instead of a
	// wrong number. These vary run-to-run and are never part of
	// determinism comparisons or golden outputs.
	SimSeconds      float64
	AccessesPerSec  float64
	AllocsPerAccess float64
}

// Deterministic returns the result with the wall-clock throughput fields
// zeroed: everything left is a pure function of the config, segment, and
// policy, and may be compared across runs.
func (r Result) Deterministic() Result {
	r.SimSeconds = 0
	r.AccessesPerSec = 0
	r.AllocsPerAccess = 0
	return r
}

// Overlap detection for startMeasure: runtime.MemStats.Mallocs is
// process-wide, so the malloc delta of a measurement window is only
// attributable to its run while it is the sole measurement in flight.
// activeMeasures counts in-flight windows; overlapEvents bumps whenever a
// window begins with another active, so a window detects overlap both ways
// (it started inside someone else's, or someone else started inside its).
var (
	activeMeasures atomic.Int64
	overlapEvents  atomic.Uint64
)

// startMeasure samples the wall clock and process allocation counter at
// the start of a measurement phase; the returned function fills r's
// throughput fields from r.LLCAccesses, so call it after the LLC counters
// are in place. If any other measurement overlapped this one, the
// process-wide malloc delta is meaningless for this run and
// AllocsPerAccess reports -1.
func startMeasure() func(r *Result) {
	startedOverlapped := activeMeasures.Add(1) > 1
	if startedOverlapped {
		overlapEvents.Add(1)
	}
	seq0 := overlapEvents.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, t0 := ms.Mallocs, time.Now()
	return func(r *Result) {
		sec := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms)
		overlapped := startedOverlapped || overlapEvents.Load() != seq0
		activeMeasures.Add(-1)
		r.SimSeconds = sec
		if r.LLCAccesses > 0 {
			if sec > 0 {
				r.AccessesPerSec = float64(r.LLCAccesses) / sec
			}
			if overlapped {
				r.AllocsPerAccess = -1
			} else {
				r.AllocsPerAccess = float64(ms.Mallocs-m0) / float64(r.LLCAccesses)
			}
		}
		mMeasurePhases.Inc()
		mPhaseSeconds.Observe(sec)
		mMeasuredAccesses.Add(r.LLCAccesses)
		if r.AccessesPerSec > 0 {
			mAccessRate.Set(r.AccessesPerSec)
		}
	}
}

// simBatchSize is how many records the drivers pull from a generator per
// trace.FillBatch call.
const simBatchSize = 256

// batchReader pulls records from a generator in chunks, amortizing the
// per-record interface call. The cursor persists across warmup/measure
// phase boundaries, so the delivered stream is exactly the generator's
// per-record stream.
//
// Column-major sources (trace.ColumnBatcher, e.g. ColumnarReplay) refill
// through per-column bulk copies into cols instead of materializing
// row-major records; next assembles the handed-out record from the column
// elements. Either way the stream is identical to repeated Next calls.
type batchReader struct {
	gen    trace.Generator
	cb     trace.ColumnBatcher // non-nil when gen refills columnar
	n, pos int
	buf    [simBatchSize]trace.Record
	cols   trace.Columns // column buffers backing the cb path
	rec    trace.Record  // assembly slot handed out by the cb path
}

// newBatchReader builds a cursor over gen, selecting the columnar refill
// path when the generator supports it.
func newBatchReader(gen trace.Generator) *batchReader {
	r := &batchReader{gen: gen}
	if cb, ok := gen.(trace.ColumnBatcher); ok {
		r.cb = cb
		r.cols = trace.Columns{
			PCs:    make([]uint64, simBatchSize),
			Addrs:  make([]uint64, simBatchSize),
			Writes: make([]bool, simBatchSize),
			NonMem: make([]uint16, simBatchSize),
		}
	}
	return r
}

// next returns the next record; the pointer is valid until the following
// call. An exhausted generator (trace.FillBatch returning 0: a finite,
// non-wrapping source that ran dry mid-run) is a panic rather than a
// silent replay of stale buffer contents; all four drivers read through
// this cursor, so the panic surfaces as an explicit run failure — under
// the experiment engine, a captured *parallel.PanicError on that one cell
// — never as corrupted statistics.
func (r *batchReader) next() *trace.Record {
	if r.pos >= r.n {
		if r.cb != nil {
			r.n = r.cb.NextColumns(&r.cols, simBatchSize)
		} else {
			r.n = trace.FillBatch(r.gen, r.buf[:])
		}
		if r.n == 0 {
			panic(fmt.Sprintf("sim: generator %q exhausted mid-run (FillBatch returned 0); the run needs more records than the source holds", r.gen.Name()))
		}
		r.pos = 0
	}
	if r.cb != nil {
		rec := &r.rec
		rec.PC = r.cols.PCs[r.pos]
		rec.Addr = r.cols.Addrs[r.pos]
		rec.IsWrite = r.cols.Writes[r.pos]
		rec.NonMem = r.cols.NonMem[r.pos]
		r.pos++
		return rec
	}
	rec := &r.buf[r.pos]
	r.pos++
	return rec
}

// RunSingle simulates one trace segment on the single-thread machine with
// the given LLC policy and returns measured statistics.
func RunSingle(cfg Config, gen trace.Generator, pf PolicyFactory) Result {
	gen.Reset()
	m := newMachine(cfg, pf, true, gen)
	res := m.run(nil, nil)
	c := m.nodes[0].cpu
	res.Segment, res.Cycles, res.IPC = gen.Name(), c.Cycles(), c.IPC()
	return res
}

// RunFastMPKI simulates a segment without the timing model, measuring only
// LLC MPKI (demand plus prefetch misses, the paper-style accounting — the
// same counters RunSingle reports). This is the "fast simulator that only
// measures average MPKI" used for the feature search (Section 5.1). It
// skips the timing model, not the generator or the upper hierarchy, which
// is what an untimed run spends: at default scale, on four segments on a
// shared 2-vCPU Xeon, it took 0.8–1.9 s against RunSingle's 1.0–2.4 s.
func RunFastMPKI(cfg Config, gen trace.Generator, pf PolicyFactory) Result {
	gen.Reset()
	res := newMachine(cfg, pf, false, gen).run(nil, nil)
	res.Segment = gen.Name()
	return res
}
