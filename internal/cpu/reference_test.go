package cpu

import (
	"fmt"
	"testing"

	"mpppb/internal/xrand"
)

// refCore is the timing model written one instruction at a time, as the
// formula reads: the ring slot is count % Window, the window-full check is
// explicit, and Now divides the last retire slot on every read. Core must
// match it after every call.
type refCore struct {
	width, window int64

	retireSlot []int64
	count      int64
	lastRetire int64
	memOps     int64

	baseInstr  int64
	baseMemOps int64
	baseCycles uint64
}

func newRefCore(cfg Config) *refCore {
	return &refCore{
		width:      int64(cfg.Width),
		window:     int64(cfg.Window),
		retireSlot: make([]int64, cfg.Window),
		lastRetire: -1,
	}
}

// step advances the model by one instruction with the given completion
// latency in cycles.
func (c *refCore) step(latencyCycles int) {
	alloc := c.count // fetched in slot count
	if c.count >= c.window {
		// Window full until the instruction Window slots ahead retires.
		if prev := c.retireSlot[c.count%c.window]; prev > alloc {
			alloc = prev
		}
	}
	// An instruction allocated in slot s with latency L retires no earlier
	// than the last slot of cycle (s/Width + L), hence the -1.
	retire := alloc + int64(latencyCycles)*c.width - 1
	if r := c.lastRetire + 1; r > retire {
		retire = r
	}
	c.retireSlot[c.count%c.window] = retire
	c.lastRetire = retire
	c.count++
}

func (c *refCore) NonMem(n int) {
	for i := 0; i < n; i++ {
		c.step(1)
	}
}

func (c *refCore) Mem(latencyCycles int) {
	c.memOps++
	c.step(latencyCycles)
}

func (c *refCore) Now() uint64 {
	if c.lastRetire < 0 {
		return 0
	}
	return uint64(c.lastRetire)/uint64(c.width) + 1
}

func (c *refCore) Cycles() uint64       { return c.Now() - c.baseCycles }
func (c *refCore) Instructions() uint64 { return uint64(c.count - c.baseInstr) }
func (c *refCore) MemOps() uint64       { return uint64(c.memOps - c.baseMemOps) }

func (c *refCore) ResetStats() {
	c.baseInstr = c.count
	c.baseMemOps = c.memOps
	c.baseCycles = c.Now()
}

// lockstep drives a Core and its reference with the same calls and
// reports the first call after which they disagree.
type lockstep struct {
	got   *Core
	want  *refCore
	calls int
}

func newLockstep(cfg Config) *lockstep {
	return &lockstep{got: New(cfg), want: newRefCore(cfg)}
}

// do applies one call, chosen by op and arg, to both models: NonMem of
// up to 15 instructions (0 included), Mem with a latency of 1 to 300
// cycles, or ResetStats.
func (l *lockstep) do(op, arg uint8) error {
	var call string
	switch op % 8 {
	case 0, 1, 2:
		n := int(arg % 16)
		call = fmt.Sprintf("NonMem(%d)", n)
		l.got.NonMem(n)
		l.want.NonMem(n)
	case 7:
		call = "ResetStats()"
		l.got.ResetStats()
		l.want.ResetStats()
	default:
		lat := 1 + int(arg)%300
		if op%8 == 3 {
			lat = 1 + int(arg)%4 // a run of short latencies keeps the window full
		}
		call = fmt.Sprintf("Mem(%d)", lat)
		l.got.Mem(lat)
		l.want.Mem(lat)
	}
	l.calls++
	g, w := l.got, l.want
	if g.Now() != w.Now() || g.Cycles() != w.Cycles() ||
		g.Instructions() != w.Instructions() || g.MemOps() != w.MemOps() {
		return fmt.Errorf("call %d, %s: Now/Cycles/Instructions/MemOps = %d/%d/%d/%d, reference %d/%d/%d/%d",
			l.calls, call, g.Now(), g.Cycles(), g.Instructions(), g.MemOps(),
			w.Now(), w.Cycles(), w.Instructions(), w.MemOps())
	}
	return nil
}

// TestCoreMatchesReference drives the core and the per-instruction
// reference with the same random call sequences over every width and
// window shape the simulator's callers and tests use, plus odd ones that
// are neither powers of two nor multiples of each other.
func TestCoreMatchesReference(t *testing.T) {
	for _, width := range []int{1, 2, 3, 4, 8} {
		for _, window := range []int{1, 2, 3, 16, 100, 128} {
			cfg := Config{Width: width, Window: window}
			t.Run(fmt.Sprintf("w%d/rob%d", width, window), func(t *testing.T) {
				l := newLockstep(cfg)
				if l.got.Now() != l.want.Now() || l.got.Cycles() != 0 {
					t.Fatalf("fresh core: Now %d Cycles %d, reference Now %d", l.got.Now(), l.got.Cycles(), l.want.Now())
				}
				rng := xrand.New(uint64(width)<<16 | uint64(window))
				for i := 0; i < 20_000; i++ {
					if err := l.do(uint8(rng.Uint64()), uint8(rng.Uint64())); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// FuzzCoreMatchesReference lets the fuzzer pick the width, the window and
// the call sequence: the first two bytes choose a Width of 1–8 and a
// Window of 1–256, and each later pair of bytes is one call.
func FuzzCoreMatchesReference(f *testing.F) {
	f.Add([]byte{3, 127, 0, 5, 4, 239, 7, 0, 1, 15, 5, 40})
	f.Add([]byte{0, 0, 4, 1, 4, 1, 0, 3})
	f.Add([]byte{2, 99, 5, 255, 5, 255, 3, 3, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		l := newLockstep(Config{Width: 1 + int(data[0]%8), Window: 1 + int(data[1])})
		for i := 2; i+1 < len(data); i += 2 {
			if err := l.do(data[i], data[i+1]); err != nil {
				t.Fatal(err)
			}
		}
	})
}
