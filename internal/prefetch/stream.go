// Package prefetch implements the stream prefetcher from the paper's
// methodology (Section 4.1): it starts a stream on an L1 cache miss, waits
// for at most two misses to decide the stream's direction, then generates
// prefetch requests ahead of the stream. It tracks 16 separate streams with
// LRU replacement.
package prefetch

import (
	"fmt"
	"math/bits"

	"mpppb/internal/trace"
)

// Defaults for the paper's configuration.
const (
	// DefaultStreams is the number of concurrently tracked streams.
	DefaultStreams = 16
	// DefaultDistance is how many blocks ahead of the stream head
	// prefetches are issued. Streams advance quickly relative to DRAM
	// latency, so the prefetcher runs well ahead.
	DefaultDistance = 8
	// DefaultDegree is how many prefetches are issued per triggering miss
	// once a stream is confirmed.
	DefaultDegree = 2
	// maxStreams is the largest table the recency list holds: one 4-bit
	// entry per stream in a uint64.
	maxStreams = 16
	// windowBlocks is how close (in blocks) a miss must land to an
	// existing stream head to be considered part of that stream.
	windowBlocks = 16
)

type stream struct {
	headBlock uint64 // last miss block observed for this stream
	dir       int    // +1 ascending, -1 descending, 0 undecided
	confirmed bool
}

// Stream is the stream prefetcher. It implements cache.Prefetcher
// structurally (the hierarchy depends on the interface, not this type).
//
// Streams are never invalidated, so they are allocated in index order and
// streams[:used] are the live ones. Once all are live, a new stream
// replaces the one least recently allocated or matched: the last entry of
// order, a recency list with one 4-bit stream index per position, most
// recent first, which every allocation and match moves to the front.
type Stream struct {
	streams  []stream
	used     int
	order    uint64 // nibble i: the stream at recency position i
	lruShift uint   // bit offset of position len(streams)-1 in order
	distance uint64
	degree   int
	out      []uint64 // reused result buffer
}

// nibbles has 1 in every 4-bit lane.
const nibbles = 0x1111111111111111

// NewStream constructs a stream prefetcher with the paper's defaults.
func NewStream() *Stream {
	return NewStreamWith(DefaultStreams, DefaultDistance, DefaultDegree)
}

// NewStreamWith constructs a stream prefetcher with explicit table size
// (1 to 16), prefetch distance, and degree.
func NewStreamWith(nStreams, distance, degree int) *Stream {
	if nStreams < 1 || nStreams > maxStreams {
		panic(fmt.Sprintf("prefetch: %d streams; the table holds 1 to %d", nStreams, maxStreams))
	}
	return &Stream{
		streams: make([]stream, nStreams),
		// Position i starts at stream i: positions at or past used hold
		// streams not yet allocated, and only moves to the front permute
		// the live positions.
		order:    0xfedcba9876543210,
		lruShift: uint(4 * (nStreams - 1)),
		distance: uint64(distance),
		degree:   degree,
		out:      make([]uint64, 0, degree),
	}
}

// touch moves stream i to the front of the recency list. Its position is
// the lowest zero lane of order XOR i in every lane (the zero-nibble test
// flags that lane exactly; only lanes above it can be false positives);
// the entries in front of it move back one position.
func (p *Stream) touch(i int) {
	v := p.order ^ uint64(i)*nibbles
	at := uint(bits.TrailingZeros64((v-nibbles)&^v&(nibbles<<3))) &^ 3
	front := uint64(1)<<at - 1
	p.order = p.order&^(front<<4|0xf) | (p.order&front)<<4 | uint64(i)
}

// OnL1Miss observes a demand L1 miss and returns byte addresses of blocks
// to prefetch. The returned slice is reused across calls.
func (p *Stream) OnL1Miss(_, addr uint64) []uint64 {
	block := addr >> trace.BlockBits
	p.out = p.out[:0]

	// Find a stream this miss extends.
	best := -1
	for i := range p.streams[:p.used] {
		if diff(block, p.streams[i].headBlock) <= windowBlocks {
			best = i
			break
		}
	}

	if best < 0 {
		// Allocate the next unused stream, or replace the LRU one.
		victim := p.used
		if victim < len(p.streams) {
			p.used++
		} else {
			victim = int(p.order >> p.lruShift & 0xf)
		}
		p.streams[victim] = stream{headBlock: block}
		p.touch(victim)
		return p.out
	}

	p.touch(best)
	s := &p.streams[best]
	if block == s.headBlock {
		return p.out // same block; nothing to learn
	}

	if !s.confirmed {
		// Second miss decides the direction (the paper's prefetcher
		// "waits for at most two misses to decide on the direction").
		if block > s.headBlock {
			s.dir = 1
		} else {
			s.dir = -1
		}
		s.confirmed = true
		s.headBlock = block
		return p.emit(s)
	}

	// Established stream: advance the head if the miss continues in the
	// stream direction; a miss against the direction re-trains it.
	moved := (s.dir > 0 && block > s.headBlock) || (s.dir < 0 && block < s.headBlock)
	if moved {
		s.headBlock = block
		return p.emit(s)
	}
	// Direction violated: restart direction training from this block.
	s.confirmed = false
	s.dir = 0
	s.headBlock = block
	return p.out
}

// emit produces the prefetch addresses for a confirmed stream.
func (p *Stream) emit(s *stream) []uint64 {
	for i := 1; i <= p.degree; i++ {
		var target uint64
		if s.dir > 0 {
			target = s.headBlock + p.distance + uint64(i) - 1
		} else {
			d := p.distance + uint64(i) - 1
			if s.headBlock < d {
				continue
			}
			target = s.headBlock - d
		}
		p.out = append(p.out, target<<trace.BlockBits)
	}
	return p.out
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
