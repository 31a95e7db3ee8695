package sim

import (
	"mpppb/internal/cache"
	"mpppb/internal/cpu"
	"mpppb/internal/policy"
	"mpppb/internal/prefetch"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/verify"
)

// machine is the simulated machine of Section 4.1, which the four drivers
// run four ways: timed with one core (RunSingle) or four sharing the LLC
// (RunMulti), and untimed on one core with the LLC policy's predictions
// applied (RunFastMPKI) or only recorded (RunROC).
type machine struct {
	cfg    Config
	llc    *cache.Cache
	nodes  []node
	checks []*verify.Checker // nil unless cfg.Check
	timed  bool
	now    uint64 // untimed instruction clock, carried across phases
}

// node is one core of the machine: its trace cursor, its private L1/L2
// and prefetcher, and its timing model when the run is timed. The timed
// phase loads all of it once per step.
type node struct {
	cpu   *cpu.Core // nil in an untimed run
	clock uint64    // cpu.Now() as of the core's last step
	rd    *batchReader
	h     *cache.Hierarchy
	done  bool // met the current phase's quota
}

// newMachine builds the LLC under pf and, per generator, one core: its
// batch cursor, its hierarchy (fixed-LRU L1 and L2, the stream prefetcher
// when cfg.Prefetch, the shared LLC) and its timing model when timed. It
// attaches the -check layer to the LLC and every L1/L2 before the first
// access. The generators must be at the start of their streams: a driver
// handed one resets it, while RunMulti builds fresh ones in every cell,
// which start there (workload.NewGenerator resets what it builds, and a
// kernel's Zipf table is built once per process and shared).
func newMachine(cfg Config, pf PolicyFactory, timed bool, gens ...trace.Generator) *machine {
	sets := cfg.LLCSize / trace.BlockSize / cfg.LLCWays
	m := &machine{
		cfg:   cfg,
		llc:   cache.New("llc", sets, cfg.LLCWays, pf(sets, cfg.LLCWays)),
		nodes: make([]node, len(gens)),
		timed: timed,
	}
	if cfg.Check {
		m.checks = append(m.checks, verify.Attach(m.llc))
	}
	lru := func(name string, size, ways int) *cache.Cache {
		return cache.NewBySize(name, size, ways, policy.NewLRU(size/trace.BlockSize/ways, ways))
	}
	for i, gen := range gens {
		n := &m.nodes[i]
		n.rd = newBatchReader(gen)
		n.h = &cache.Hierarchy{
			Core: i,
			L1:   lru("l1d", cfg.L1Size, cfg.L1Ways),
			L2:   lru("l2", cfg.L2Size, cfg.L2Ways),
			LLC:  m.llc,
			Lat:  cfg.Lat,
		}
		if cfg.Prefetch {
			n.h.Pf = prefetch.NewStream()
		}
		if timed {
			n.cpu = cpu.New(cfg.CPU)
		}
		if cfg.Check {
			m.checks = append(m.checks, verify.Attach(n.h.L1), verify.Attach(n.h.L2))
		}
	}
	return m
}

// run warms the machine for cfg.Warmup instructions, resets every counter
// (calling atReset, when set, at that point), runs cfg.Measure measured
// instructions inside one startMeasure window, and gives every checker
// its final sweep. reached, when set, sees each timed core the moment it
// meets its measured quota. The Result carries the measured instructions
// and LLC counters; Segment, Cycles and IPC are the driver's to fill.
func (m *machine) run(atReset func(), reached func(i int, c *cpu.Core)) Result {
	endWarmup := startPhase(mWarmupPhases)
	m.phase(m.cfg.Warmup, nil)
	endWarmup()
	for i := range m.nodes {
		n := &m.nodes[i]
		n.h.ResetStats()
		if n.cpu != nil {
			n.cpu.ResetStats()
		}
	}
	m.llc.ResetStats()
	if atReset != nil {
		atReset()
	}
	measure := startMeasure()
	instr := m.phase(m.cfg.Measure, reached)
	s := &m.llc.Stats
	misses := s.DemandMisses + s.PrefetchMisses
	res := Result{
		Instructions: instr,
		LLCAccesses:  s.DemandAccesses + s.PrefetchAccesses,
		LLCMisses:    misses,
		MPKI:         stats.MPKI(misses, instr),
		Bypasses:     s.Bypasses,
	}
	measure(&res)
	for _, k := range m.checks {
		k.Finish()
	}
	return res
}

// phase runs until every core has retired limit instructions in this
// phase and returns the instructions the cores had retired when they met
// it: the count MPKI divides by.
func (m *machine) phase(limit uint64, reached func(int, *cpu.Core)) uint64 {
	if m.timed {
		return m.timedPhase(limit, reached)
	}
	return m.untimedPhase(limit)
}

// timedPhase steps the core with the smallest clock next, ties going to
// the lowest index: the sample-balanced scheduling of Section 4.5, which
// keeps the cores aligned in time. The pick compares the clocks cached in
// the nodes; only the core just stepped moves its clock, so only its
// cache is refreshed. A core that has met its quota keeps running, so
// contention persists for the laggards; reached sees it at that moment.
// Every core is checked before the first step (a zero quota is met at
// once); after that only the core just stepped can meet it.
func (m *machine) timedPhase(limit uint64, reached func(int, *cpu.Core)) uint64 {
	ns := m.nodes
	for i := range ns {
		ns[i].done = false
		ns[i].clock = ns[i].cpu.Now()
	}
	var instr uint64
	left := len(ns)
	for lo, hi := 0, len(ns); ; {
		for i := lo; i < hi; i++ {
			if n := &ns[i]; !n.done && n.cpu.Instructions() >= limit {
				n.done = true
				left--
				instr += n.cpu.Instructions()
				if reached != nil {
					reached(i, n.cpu)
				}
			}
		}
		if left == 0 {
			return instr
		}
		i, best := 0, ns[0].clock
		for j := 1; j < len(ns); j++ {
			if ns[j].clock < best {
				i, best = j, ns[j].clock
			}
		}
		n := &ns[i]
		rec := n.rd.next()
		if rec.NonMem > 0 {
			n.cpu.NonMem(int(rec.NonMem))
		}
		n.cpu.Mem(n.h.Demand(rec.PC, rec.Addr, rec.IsWrite, n.cpu.Now()))
		n.clock = n.cpu.Now()
		lo, hi = i, i+1
	}
}

// untimedPhase feeds core 0's records to its hierarchy until limit
// instructions have retired, using the instruction clock as each access's
// time. The clock carries across the warmup→measure boundary, so it stays
// monotonic: resetting it would jump "now" backward and confuse
// timestamp-ordered state (the prefetcher's stream LRU, the sampler). The
// loop keeps it in a local: updating m.now per record measured slower.
func (m *machine) untimedPhase(limit uint64) uint64 {
	n := &m.nodes[0]
	rd, h, now := n.rd, n.h, m.now
	var instr uint64
	for instr < limit {
		rec := rd.next()
		h.Demand(rec.PC, rec.Addr, rec.IsWrite, now)
		k := rec.Instructions()
		now += k
		instr += k
	}
	m.now = now
	return instr
}
