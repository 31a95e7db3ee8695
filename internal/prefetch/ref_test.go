package prefetch

import (
	"math/rand"
	"slices"
	"testing"

	"mpppb/internal/trace"
)

// refStream is the prefetcher as it was before the recency list: every
// stream carries the clock of its last allocation or match, and a miss
// that extends no stream scans the whole table for the first invalid
// stream, or else the smallest clock. It is the reference the list is
// checked against.
type refStream struct {
	streams  []refEntry
	clock    uint64
	distance uint64
	degree   int
	out      []uint64
}

type refEntry struct {
	valid     bool
	headBlock uint64
	dir       int
	confirmed bool
	lruClock  uint64
}

func newRefStream(nStreams, distance, degree int) *refStream {
	return &refStream{streams: make([]refEntry, nStreams), distance: uint64(distance), degree: degree}
}

func (p *refStream) OnL1Miss(_, addr uint64) []uint64 {
	p.clock++
	block := addr >> trace.BlockBits
	p.out = p.out[:0]
	best := -1
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && diff(block, s.headBlock) <= windowBlocks {
			best = i
			break
		}
	}
	if best < 0 {
		victim := 0
		for i := range p.streams {
			if !p.streams[i].valid {
				victim = i
				break
			}
			if p.streams[i].lruClock < p.streams[victim].lruClock {
				victim = i
			}
		}
		p.streams[victim] = refEntry{valid: true, headBlock: block, lruClock: p.clock}
		return p.out
	}
	s := &p.streams[best]
	s.lruClock = p.clock
	if block == s.headBlock {
		return p.out
	}
	if !s.confirmed {
		if block > s.headBlock {
			s.dir = 1
		} else {
			s.dir = -1
		}
		s.confirmed = true
		s.headBlock = block
		return p.emit(s)
	}
	if (s.dir > 0 && block > s.headBlock) || (s.dir < 0 && block < s.headBlock) {
		s.headBlock = block
		return p.emit(s)
	}
	s.confirmed = false
	s.dir = 0
	s.headBlock = block
	return p.out
}

func (p *refStream) emit(s *refEntry) []uint64 {
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

// missSource turns a byte string into L1 miss addresses: eight walkers
// that step a few blocks up or down (extending, re-training or leaving
// their streams), one of them starting near block 0, and jumps to fresh
// regions that allocate a stream and force replacements.
type missSource struct {
	walkers [8]uint64
	jump    uint64
}

func newMissSource() *missSource {
	m := &missSource{}
	for k := range m.walkers {
		m.walkers[k] = uint64(k) * 1_000_000
	}
	m.walkers[0] = 5
	return m
}

func (m *missSource) next(b byte) uint64 {
	var block uint64
	if b&0x80 != 0 {
		m.jump = m.jump*31 + uint64(b&0x7f) + 1
		block = 50_000_000 + (m.jump%4096)*64
	} else {
		k := b >> 4 & 7
		m.walkers[k] += uint64(int64(b&0xf) - 5)
		block = m.walkers[k]
	}
	return block<<trace.BlockBits | uint64(b&7)*8
}

// checkAgainstRef drives the prefetcher and the reference through the same
// misses, comparing every result and the live stream table.
func checkAgainstRef(t testing.TB, n int, seq []byte) {
	t.Helper()
	p := NewStreamWith(n, DefaultDistance, DefaultDegree)
	ref := newRefStream(n, DefaultDistance, DefaultDegree)
	src := newMissSource()
	for step, b := range seq {
		addr := src.next(b)
		got, want := p.OnL1Miss(0x400, addr), ref.OnL1Miss(0x400, addr)
		if !slices.Equal(got, want) {
			t.Fatalf("%d streams, miss %d (addr %#x): prefetches %#x, reference %#x", n, step, addr, got, want)
		}
		for i, r := range ref.streams {
			if live := i < p.used; live != r.valid {
				t.Fatalf("%d streams, miss %d: stream %d live=%v, reference %v", n, step, i, live, r.valid)
			}
			s := p.streams[i]
			if r.valid && (s.headBlock != r.headBlock || s.dir != r.dir || s.confirmed != r.confirmed) {
				t.Fatalf("%d streams, miss %d: stream %d = %+v, reference %+v", n, step, i, s, r)
			}
		}
	}
}

// TestStreamMatchesReference drives the recency-list prefetcher and
// refStream through the same random miss sequences for 1, 2, 3 and 16
// streams. The victim is at position n−1 of the list, not at its last
// nibble: with fewer than 16 streams, reading position 15 picks a stream
// at random, which the single-victim tests above can pass by luck.
func TestStreamMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			seq := make([]byte, 20000)
			rng.Read(seq)
			checkAgainstRef(t, n, seq)
		}
	}
}

func TestNewStreamWithRejectsTableSize(t *testing.T) {
	for _, n := range []int{0, -1, maxStreams + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStreamWith(%d, ...) did not panic", n)
				}
			}()
			NewStreamWith(n, DefaultDistance, DefaultDegree)
		}()
	}
}

// FuzzStreamMatchesReference checks every OnL1Miss result and the stream
// table against refStream for a fuzzed table size and miss sequence.
func FuzzStreamMatchesReference(f *testing.F) {
	f.Add(uint8(15), []byte{0x01, 0x02, 0x81, 0x82, 0x83, 0x11, 0x12, 0x03, 0x00})
	f.Add(uint8(1), []byte{0x80, 0x81, 0x80, 0x81, 0x06, 0x07, 0x01})
	f.Add(uint8(2), []byte{0x81, 0x82, 0x83, 0x81, 0x22, 0x23, 0x24, 0x82})
	f.Fuzz(func(t *testing.T, count uint8, seq []byte) {
		checkAgainstRef(t, 1+int(count)%maxStreams, seq)
	})
}

// BenchmarkStreamOnL1Miss measures one OnL1Miss over a fixed mix of
// misses: walkers that extend their streams and jumps that allocate one,
// replacing the least recently used stream of a full table.
func BenchmarkStreamOnL1Miss(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := newMissSource()
	addrs := make([]uint64, 4096)
	for i := range addrs {
		op := byte(rng.Intn(0x80))
		if rng.Intn(4) == 0 {
			op |= 0x80
		}
		addrs[i] = src.next(op)
	}
	p := NewStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnL1Miss(0x400, addrs[i&(len(addrs)-1)])
	}
}
