package sim

import (
	"fmt"

	"mpppb/internal/belady"
	"mpppb/internal/cache"
	"mpppb/internal/cpu"
	"mpppb/internal/policy"
	"mpppb/internal/prefetch"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/verify"
	"mpppb/internal/workload"
)

// The reference machine: the serial simulator the capture and replay
// split replaced, kept as the oracle the drivers are checked against. One
// goroutine runs every level of every core per record, in program order,
// through the caches' exported API, with each frame's data-arrival cycle
// kept in the caches themselves. Its L1 and L2 are generic cache.Caches
// under policy.LRU, not the drivers' cache.PrivateLevels.

// refHierarchy is one core's serial path through L1, L2 and the LLC.
type refHierarchy struct {
	core        int
	l1, l2, llc *cache.Cache
	pf          cache.Prefetcher
	lat         cache.Latencies
}

func refArrival(levelLat int, now, readyAt uint64) int {
	if readyAt > now {
		if remaining := int(readyAt - now); remaining > levelLat {
			return remaining
		}
	}
	return levelLat
}

// demand performs a demand load or store issued at cycle now and returns
// its latency in cycles.
func (h *refHierarchy) demand(rec *trace.Record, now uint64) int {
	a := cache.Access{PC: rec.PC, Addr: rec.Addr, Type: trace.Load, Core: h.core, Now: now}
	if rec.IsWrite {
		a.Type = trace.Store
	}
	r1 := h.l1.Access(a)
	if r1.Hit {
		return refArrival(h.lat.L1, now, r1.ReadyAt)
	}
	var prefetches []uint64
	if h.pf != nil {
		prefetches = h.pf.OnL1Miss(rec.PC, rec.Addr)
	}
	lat := h.below(a)
	h.l1.SetReadyAt(r1.Set, r1.Way, now+uint64(lat))
	if r1.EvictedDirty {
		h.writeback(h.l2, r1.EvictedAddr, now)
	}
	for _, pa := range prefetches {
		h.below(cache.Access{PC: trace.PrefetchPC, Addr: pa, Type: trace.Prefetch, Core: h.core, Now: now})
	}
	return lat
}

// below services an L1 miss or a prefetch from L2, the LLC or memory.
func (h *refHierarchy) below(a cache.Access) int {
	now := a.Now
	r2 := h.l2.Access(a)
	if r2.Hit {
		return refArrival(h.lat.L2, now, r2.ReadyAt)
	}
	lat := h.lat.Mem
	r3 := h.llc.Access(a)
	if r3.Hit {
		lat = refArrival(h.lat.LLC, now, r3.ReadyAt)
	} else if !r3.Bypassed {
		h.llc.SetReadyAt(r3.Set, r3.Way, now+uint64(lat))
	}
	h.l2.SetReadyAt(r2.Set, r2.Way, now+uint64(lat))
	if r2.EvictedDirty {
		h.writeback(h.llc, r2.EvictedAddr, now)
	}
	return lat
}

func (h *refHierarchy) writeback(c *cache.Cache, blockAddr, now uint64) {
	c.Access(cache.Access{Addr: blockAddr << trace.BlockBits, Type: trace.Writeback, Core: h.core, Now: now})
}

// refMachine is the serial machine: the same phases, scheduler and clocks
// as machine, with every core's hierarchy run inline.
type refMachine struct {
	cfg    Config
	llc    *cache.Cache
	nodes  []refNode
	checks []*verify.Checker
	timed  bool
	now    uint64
}

type refNode struct {
	cpu  *cpu.Core
	rd   *batchReader
	h    *refHierarchy
	done bool
}

func newRefMachine(cfg Config, pf PolicyFactory, timed bool, gens ...trace.Generator) *refMachine {
	sets := cfg.LLCSize / trace.BlockSize / cfg.LLCWays
	m := &refMachine{
		cfg:   cfg,
		llc:   cache.New("llc", sets, cfg.LLCWays, pf(sets, cfg.LLCWays)),
		nodes: make([]refNode, len(gens)),
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
		n.h = &refHierarchy{core: i, l1: lru("l1d", cfg.L1Size, cfg.L1Ways), l2: lru("l2", cfg.L2Size, cfg.L2Ways), llc: m.llc, lat: cfg.Lat}
		if cfg.Prefetch {
			n.h.pf = prefetch.NewStream()
		}
		if timed {
			n.cpu = cpu.New(cfg.CPU)
		}
		if cfg.Check {
			m.checks = append(m.checks, verify.Attach(n.h.l1), verify.Attach(n.h.l2))
		}
	}
	return m
}

func (n *refNode) next() *trace.Record {
	rec := n.rd.next()
	if rec == nil {
		panic(fmt.Sprintf("sim: generator %q exhausted mid-run (FillBatch returned 0); the run needs more records than the source holds", n.rd.gen.Name()))
	}
	return rec
}

func (m *refMachine) run(atReset func(), reached func(int, *cpu.Core)) Result {
	m.phase(m.cfg.Warmup, nil)
	for i := range m.nodes {
		if c := m.nodes[i].cpu; c != nil {
			c.ResetStats()
		}
	}
	m.llc.ResetStats()
	if atReset != nil {
		atReset()
	}
	instr := m.phase(m.cfg.Measure, reached)
	s := &m.llc.Stats
	misses := s.DemandMisses + s.PrefetchMisses
	for _, k := range m.checks {
		k.Finish()
	}
	return Result{
		Instructions: instr,
		LLCAccesses:  s.DemandAccesses + s.PrefetchAccesses,
		LLCMisses:    misses,
		MPKI:         stats.MPKI(misses, instr),
		Bypasses:     s.Bypasses,
	}
}

func (m *refMachine) phase(limit uint64, reached func(int, *cpu.Core)) uint64 {
	var instr uint64
	if !m.timed {
		n := &m.nodes[0]
		for instr < limit {
			rec := n.next()
			n.h.demand(rec, m.now)
			m.now += rec.Instructions()
			instr += rec.Instructions()
		}
		return instr
	}
	for i := range m.nodes {
		m.nodes[i].done = false
	}
	for left := len(m.nodes); ; {
		for i := range m.nodes {
			if n := &m.nodes[i]; !n.done && n.cpu.Instructions() >= limit {
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
		i := 0
		for j := range m.nodes {
			if m.nodes[j].cpu.Now() < m.nodes[i].cpu.Now() {
				i = j
			}
		}
		n := &m.nodes[i]
		rec := n.next()
		if rec.NonMem > 0 {
			n.cpu.NonMem(int(rec.NonMem))
		}
		n.cpu.Mem(n.h.demand(rec, n.cpu.Now()))
	}
}

// The drivers over the reference machine, each the serial form of its
// exported counterpart.

func refRunSingle(cfg Config, gen trace.Generator, pf PolicyFactory) Result {
	gen.Reset()
	m := newRefMachine(cfg, pf, true, gen)
	res := m.run(nil, nil)
	c := m.nodes[0].cpu
	res.Segment, res.Cycles, res.IPC = gen.Name(), c.Cycles(), c.IPC()
	return res
}

func refRunFastMPKI(cfg Config, gen trace.Generator, pf PolicyFactory) Result {
	gen.Reset()
	res := newRefMachine(cfg, pf, false, gen).run(nil, nil)
	res.Segment = gen.Name()
	return res
}

func refRunMulti(cfg Config, mix workload.Mix, pf PolicyFactory) MultiResult {
	var gens [4]trace.Generator
	for i, id := range mix {
		gens[i] = workload.NewGenerator(id, workload.CoreBase(i))
	}
	res := MultiResult{Mix: mix}
	r := newRefMachine(cfg, pf, true, gens[:]...).run(nil, func(i int, c *cpu.Core) {
		res.IPC[i], res.Instructions[i], res.Cycles[i] = c.IPC(), c.Instructions(), c.Cycles()
	})
	res.LLCMisses, res.LLCAccesses, res.MPKI = r.LLCMisses, r.LLCAccesses, r.MPKI
	return res
}

func refRunROC(cfg Config, gen trace.Generator, cf ConfidenceFactory) []stats.ROCSample {
	var probe *rocProbe
	pf := func(sets, ways int) cache.ReplacementPolicy {
		probe = newROCProbe(sets, ways, cf(sets, ways))
		return probe
	}
	gen.Reset()
	newRefMachine(cfg, pf, false, gen).run(func() { probe.samples = probe.samples[:0] }, nil)
	return probe.samples
}

func refRunSingleMIN(cfg Config, gen trace.Generator) (lru, min Result) {
	var rec *belady.Recorder
	lru = refRunSingle(cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
		rec = belady.NewRecorder(policy.NewLRU(sets, ways))
		return rec
	})
	min = refRunSingle(cfg, gen, func(sets, ways int) cache.ReplacementPolicy {
		return belady.NewMIN(sets, ways, rec.Stream())
	})
	min.Segment = gen.Name()
	return lru, min
}
