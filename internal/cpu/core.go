// Package cpu implements the simplified out-of-order core timing model used
// to turn cache behaviour into instructions-per-cycle, following the
// paper's performance model (Section 4.1): a 4-wide, 8-stage pipeline with
// a 128-entry instruction window.
//
// The model tracks three constraints that dominate IPC in memory-bound
// code: fetch bandwidth (Width instructions per cycle), in-order retirement
// (Width per cycle), and window occupancy (an instruction cannot enter the
// window until the instruction Window places ahead of it has retired). A
// memory instruction completes its access latency after entering the
// window, so independent misses overlap up to the window size — the
// memory-level parallelism that makes LLC policy matter for IPC. The model
// is not cycle-accurate (no branch or dependency modelling), which is
// sufficient for the relative speedups the experiments report.
package cpu

import "math/bits"

// Config describes the core.
type Config struct {
	// Width is fetch and retire bandwidth in instructions per cycle.
	Width int
	// Window is the instruction window (ROB) size.
	Window int
}

// DefaultConfig is the paper's 4-wide, 128-entry-window core.
func DefaultConfig() Config { return Config{Width: 4, Window: 128} }

// Core is the timing model. All internal times are in "slots": 1/Width of
// a cycle, so one instruction can be fetched and one retired per slot.
type Core struct {
	cfg Config
	// shift is log2(Width) when Width is a power of two, as the paper's 4
	// is, so advance turns slots into cycles with a shift; divide marks a
	// Width that is not, which takes a 64-bit divide.
	shift  uint8
	divide bool

	retireSlot []int64 // ring buffer: retire slot of the last Window instructions
	pos        int     // ring cursor: count % Window
	count      int64   // instructions processed (absolute)
	lastRetire int64   // retire slot of the most recent instruction (absolute)
	now        uint64  // Now, refreshed at the end of every NonMem and Mem
	memOps     int64

	// Measurement window marks, set by ResetStats. The pipeline clock is
	// absolute and never rebases — cache timestamps (prefetch readiness)
	// depend on it — while the reported statistics cover only the window.
	baseInstr  int64
	baseMemOps int64
	baseCycles uint64
}

// New constructs a core with the given configuration.
func New(cfg Config) *Core {
	if cfg.Width <= 0 || cfg.Window <= 0 {
		panic("cpu: non-positive core configuration")
	}
	c := &Core{cfg: cfg, retireSlot: make([]int64, cfg.Window), lastRetire: -1}
	if w := uint(cfg.Width); w&(w-1) == 0 {
		c.shift = uint8(bits.TrailingZeros(w))
	} else {
		c.divide = true
	}
	return c
}

// advance retires n instructions that each complete latencyCycles after
// they enter the window. Fetch delivers instruction i in slot i. It enters
// the window once the instruction Window places ahead of it has retired
// (the ring slot it reuses; a slot never written holds 0, which never
// delays), and completes in the last slot of cycle (alloc/Width +
// latency), hence the -1. It retires no earlier than that and strictly
// after its predecessor. The ring cursor, count and last retire slot stay
// in locals for the loop; the clock is converted to cycles once, at the
// end, by a shift when Width is a power of two.
func (c *Core) advance(n, latencyCycles int) {
	if n <= 0 {
		return
	}
	ring, pos := c.retireSlot, c.pos
	count, last := c.count, c.lastRetire
	span := int64(latencyCycles)*int64(c.cfg.Width) - 1
	for ; n > 0; n-- {
		alloc := count
		if prev := ring[pos]; prev > alloc {
			alloc = prev
		}
		retire := alloc + span
		if retire <= last {
			retire = last + 1
		}
		ring[pos] = retire
		last = retire
		count++
		if pos++; pos == len(ring) {
			pos = 0
		}
	}
	c.pos, c.count, c.lastRetire = pos, count, last
	if c.divide {
		c.now = uint64(last)/uint64(c.cfg.Width) + 1
	} else {
		c.now = uint64(last)>>c.shift + 1
	}
}

// NonMem advances the model by n single-cycle non-memory instructions.
func (c *Core) NonMem(n int) { c.advance(n, 1) }

// Mem advances the model by one memory instruction whose access took the
// given latency in cycles.
func (c *Core) Mem(latencyCycles int) {
	c.memOps++
	c.advance(1, latencyCycles)
}

// Instructions returns the number of instructions retired in the current
// measurement window.
func (c *Core) Instructions() uint64 { return uint64(c.count - c.baseInstr) }

// MemOps returns the number of memory instructions retired in the window.
func (c *Core) MemOps() uint64 { return uint64(c.memOps - c.baseMemOps) }

// Now returns the absolute elapsed cycles since the core was constructed:
// 0 before the first instruction, else the cycle after the one holding
// the last retire slot. Use Now for timestamps handed to the memory
// hierarchy; it never rebases.
func (c *Core) Now() uint64 { return c.now }

// Cycles returns the cycles elapsed in the current measurement window.
func (c *Core) Cycles() uint64 { return c.Now() - c.baseCycles }

// IPC returns retired instructions per cycle over the measurement window.
func (c *Core) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.Instructions()) / float64(cy)
}

// ResetStats restarts measurement while preserving pipeline state and the
// absolute clock, as at the end of a warmup phase.
func (c *Core) ResetStats() {
	c.baseInstr = c.count
	c.baseMemOps = c.memOps
	c.baseCycles = c.Now()
}
