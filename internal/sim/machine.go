package sim

import (
	"sync"

	"mpppb/internal/cache"
	"mpppb/internal/cpu"
	"mpppb/internal/prefetch"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/verify"
)

// machine is the simulated machine of Section 4.1, which the four drivers
// run four ways: timed with one core (RunSingle) or four sharing the LLC
// (RunMulti), and untimed on one core with the LLC policy's predictions
// applied (RunFastMPKI) or only recorded (RunROC).
//
// It runs as a capture per core plus one replay. Each core's capture
// (capture.go) runs its generator, L1, L2 and prefetcher in a goroutine
// of its own and hands blocks of captured records over; the machine
// replays them against the shared LLC on the calling goroutine, with each
// core's timing model when timed. So a lone cell runs its private and
// shared halves on two CPUs at once (cache.Private explains why the
// split is exact).
type machine struct {
	cfg    Config
	llc    *cache.Cache
	nodes  []node
	caps   []capture
	checks []*verify.Checker // nil unless cfg.Check
	timed  bool
	now    uint64 // untimed instruction clock, carried across phases
	stop   chan struct{}
	wg     sync.WaitGroup
}

// node is one core as the replay sees it: its port into the LLC, its
// timing model when the run is timed, and its cursor in the block of
// captured records it is replaying. The timed phase loads all of it once
// per step.
type node struct {
	cpu   *cpu.Core // nil in an untimed run
	clock uint64    // cpu.Now() as of the core's last step
	port  *cache.Port
	words []uint64 // the block being replayed
	r     int      // its next record's first word
	blk   *block
	full  <-chan *block
	free  chan<- *block
	done  bool // met the current phase's quota
}

// newMachine builds the LLC under pf and, per generator, one core: its
// capture (cache.Private's fixed-LRU L1 and L2, the stream prefetcher when
// cfg.Prefetch, the generator's batch cursor and the core's buffers), its
// port into the LLC and its timing model when timed. It attaches the
// -check layer to the LLC and to every L1 and L2 before the first access.
// The generators must be at the start of their streams: a driver handed
// one resets it, while RunMulti builds fresh ones in every cell, which
// start there (workload.NewGenerator resets what it builds, and a
// kernel's Zipf table is built once per process and shared).
func newMachine(cfg Config, pf PolicyFactory, timed bool, gens ...trace.Generator) *machine {
	sets := cfg.LLCSize / trace.BlockSize / cfg.LLCWays
	m := &machine{
		cfg:   cfg,
		llc:   cache.New("llc", sets, cfg.LLCWays, pf(sets, cfg.LLCWays)),
		nodes: make([]node, len(gens)),
		caps:  make([]capture, len(gens)),
		timed: timed,
	}
	if cfg.Check {
		m.checks = append(m.checks, verify.Attach(m.llc))
	}
	l1, l2 := cache.Geometry{Size: cfg.L1Size, Ways: cfg.L1Ways}, cache.Geometry{Size: cfg.L2Size, Ways: cfg.L2Ways}
	// A block must hold the largest record, however many cores share the
	// budget.
	blockWords := max(cellBufferBytes/8/blocksPerCore/len(gens), cache.MaxWords)
	for i, gen := range gens {
		var pfr cache.Prefetcher
		if cfg.Prefetch {
			pfr = prefetch.NewStream()
		}
		priv := cache.NewPrivate(i, l1, l2, pfr)
		if cfg.Check {
			p1, p2 := priv.Levels()
			m.checks = append(m.checks, verify.AttachPrivate(p1), verify.AttachPrivate(p2))
		}
		// Each channel holds every block the core has, so no send blocks:
		// only an empty channel makes its receiver wait.
		c, n := &m.caps[i], &m.nodes[i]
		full, free := make(chan *block, blocksPerCore), make(chan *block, blocksPerCore)
		*c = capture{rd: newBatchReader(gen), priv: priv, full: full, free: free}
		if len(gens) == 1 {
			// A lone core reads a known number of records: exactly those
			// its two phases' instructions take, no more.
			c.quota = []uint64{cfg.Warmup, cfg.Measure}
		}
		words := make([]uint64, blockWords*blocksPerCore)
		for b := 0; b < blocksPerCore; b++ {
			free <- &block{words: words[b*blockWords : b*blockWords : (b+1)*blockWords]}
		}
		n.port, n.full, n.free = cache.NewPort(priv, m.llc, cfg.Lat), full, free
		if timed {
			n.cpu = cpu.New(cfg.CPU)
		}
	}
	return m
}

// run starts every core's capture, warms the machine for cfg.Warmup
// instructions, resets every counter (calling atReset, when set, at that
// point), runs cfg.Measure measured instructions inside one startMeasure
// window, stops and joins the captures, and gives every checker its final
// sweep. The captures are joined however run returns, a panic included.
// reached, when set, sees each timed core the moment it meets its
// measured quota. The Result carries the measured instructions and LLC
// counters; Segment, Cycles and IPC are the driver's to fill.
func (m *machine) run(atReset func(), reached func(i int, c *cpu.Core)) Result {
	m.stop = make(chan struct{})
	defer m.halt()
	for i := range m.caps {
		m.wg.Add(1)
		go m.caps[i].run(m.stop, &m.wg)
	}
	endWarmup := startPhase(mWarmupPhases)
	m.phase(m.cfg.Warmup, nil)
	endWarmup()
	for i := range m.nodes {
		if c := m.nodes[i].cpu; c != nil {
			c.ResetStats()
		}
	}
	m.llc.ResetStats()
	if atReset != nil {
		atReset()
	}
	measure := startMeasure()
	defer measure(nil)
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
	m.halt()
	for _, k := range m.checks {
		k.Finish()
	}
	return res
}

// halt stops every capture and waits until each has returned; a second
// call does nothing.
func (m *machine) halt() {
	if m.stop != nil {
		close(m.stop)
		m.wg.Wait()
		m.stop = nil
	}
}

// next returns the core's next captured record, taking the next block
// from its capture once this one is used up. Past a block that ends its
// capture (the source ran dry, or the capture panicked), it re-raises the
// capture's panic here, on the replay's goroutine.
func (n *node) next() cache.Op {
	for n.r == len(n.words) {
		if b := n.blk; b != nil {
			if b.end != nil {
				panic(b.end)
			}
			n.free <- b
		}
		b := <-n.full
		n.blk, n.words, n.r = b, b.words, 0
	}
	op := cache.Op(n.words[n.r])
	n.r++
	return op
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
		op := n.next()
		if k := op.NonMem(); k > 0 {
			n.cpu.NonMem(k)
		}
		var lat int
		lat, n.r = n.port.Replay(op, n.words, n.r, n.cpu.Now())
		n.cpu.Mem(lat)
		n.clock = n.cpu.Now()
		lo, hi = i, i+1
	}
}

// untimedPhase replays core 0's records until limit instructions have
// retired, using the instruction clock as each access's time and
// discarding latencies. The clock carries across the warmup→measure
// boundary, so the time each LLC access carries never moves backward.
// The loop keeps it in a local: updating m.now per record measured slower.
func (m *machine) untimedPhase(limit uint64) uint64 {
	n := &m.nodes[0]
	port, now := n.port, m.now
	var instr uint64
	for instr < limit {
		op := n.next()
		_, n.r = port.Replay(op, n.words, n.r, now)
		k := op.Instructions()
		now += k
		instr += k
	}
	m.now = now
	return instr
}
