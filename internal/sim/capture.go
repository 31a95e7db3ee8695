package sim

import (
	"fmt"
	"sync"

	"mpppb/internal/cache"
)

// Each core's capture hands its records to the replay through
// blocksPerCore blocks of words, allocated once per cell and reused in
// turn. cellBufferBytes is the whole budget of a cell's blocks, shared
// evenly among its cores: a core of a four-core cell needs to run only a
// quarter as fast as a lone core to keep the replay fed. A record takes
// one word when it hits L1 and up to cache.MaxWords when it reaches the
// LLC, so a block holds more records the fewer reach the LLC, and its
// replay time varies less than its record count. The budget was chosen by
// measurement (docs/PERFORMANCE.md, "Capture and replay").
const (
	cellBufferBytes = 64 << 10
	blocksPerCore   = 4
)

// block is one hand-off from a capture to the replay: whole records, and
// when the capture ended with it, what the replay panics with if it needs
// a record past them.
type block struct {
	words []uint64
	end   any
}

// pastEnd ends a lone core's capture once it has read every record the
// run needs; the replay never reads past it.
const pastEnd = "sim: the replay read past the end of its capture"

// capture is one core's private half, run in a goroutine of its own: it
// reads the generator through its batch cursor, runs each record through
// the core's L1, L2 and prefetcher, and fills the blocks the replay has
// handed back. It waits on a channel whenever every block is full.
type capture struct {
	rd   *batchReader
	priv *cache.Private
	full chan<- *block
	free <-chan *block
	// quota holds a lone core's phase lengths in instructions, the
	// current phase first, so the capture reads exactly the records the
	// run does and leaves the generator where a serial run would. It is
	// nil when several cores share the LLC: then how far each core runs
	// depends on the others, and the capture reads ahead until stopped.
	quota []uint64
	instr uint64 // instructions the current phase has read
}

// run fills blocks until stop closes, the source runs dry, a lone core's
// quota is met or the capture panics. The last three end the block they
// happen in, so the replay meets them where a serial run would have.
func (c *capture) run(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	var b *block
	defer func() {
		if v := recover(); v != nil {
			b.end = v
			c.full <- b
		}
	}()
	for b == nil || b.end == nil {
		select {
		case <-stop:
			return
		default:
		}
		select {
		case <-stop:
			return
		case b = <-c.free:
		}
		b.words = b.words[:0]
		for cap(b.words)-len(b.words) >= cache.MaxWords {
			if !c.more() {
				b.end = pastEnd
				break
			}
			rec := c.rd.next()
			if rec == nil {
				b.end = fmt.Sprintf("sim: generator %q exhausted mid-run (FillBatch returned 0); the run needs more records than the source holds", c.rd.gen.Name())
				break
			}
			b.words = c.priv.Capture(rec, b.words)
			c.instr += uint64(rec.NonMem) + 1
		}
		c.full <- b
	}
}

// more reports whether the run reads another record: always when the
// capture reads ahead, and otherwise until the last phase's quota is met.
func (c *capture) more() bool {
	if c.quota == nil {
		return true
	}
	for c.instr >= c.quota[0] {
		if len(c.quota) == 1 {
			return false
		}
		c.quota, c.instr = c.quota[1:], 0
	}
	return true
}
