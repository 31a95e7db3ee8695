package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format, for capturing synthetic workloads or feeding
// externally collected program traces to the simulator.
//
// Layout: an 8-byte magic, then one varint-encoded record per memory
// instruction. PCs and addresses are delta-encoded against the previous
// record (zigzag varints), which compresses loop-heavy traces well; the
// flags byte carries the store bit and small non-memory counts, with an
// escape to a full varint for large ones.
const fileMagic = "MPPPBT1\n"

// flag encoding: bit 0 = store; bits 1..6 = NonMem when < nonMemEscape;
// NonMem == nonMemEscape means "read a varint".
const nonMemEscape = 63

// Writer streams records to a binary trace file.
type Writer struct {
	w       *bufio.Writer
	lastPC  uint64
	lastA   uint64
	count   uint64
	started bool
	buf     [3 * binary.MaxVarintLen64]byte
}

// NewWriter begins a trace on w by writing the header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// zigzag encodes a signed delta as unsigned.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag decodes.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Add appends one record.
func (t *Writer) Add(r Record) error {
	flags := uint64(0)
	if r.IsWrite {
		flags = 1
	}
	nm := uint64(r.NonMem)
	if nm < nonMemEscape {
		flags |= nm << 1
	} else {
		flags |= nonMemEscape << 1
	}
	n := binary.PutUvarint(t.buf[:], flags)
	n += binary.PutUvarint(t.buf[n:], zigzag(int64(r.PC)-int64(t.lastPC)))
	n += binary.PutUvarint(t.buf[n:], zigzag(int64(r.Addr)-int64(t.lastA)))
	if _, err := t.w.Write(t.buf[:n]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	if nm >= nonMemEscape {
		var vb [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(vb[:], nm)
		if _, err := t.w.Write(vb[:k]); err != nil {
			return fmt.Errorf("trace: writing record: %w", err)
		}
	}
	t.lastPC, t.lastA = r.PC, r.Addr
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush completes the trace. The underlying writer is not closed.
func (t *Writer) Flush() error { return t.w.Flush() }

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// ReadAll decodes an entire trace into memory.
func ReadAll(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	if string(head) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head)
	}
	var out []Record
	var lastPC, lastA int64
	for {
		flags, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		dpc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated record", ErrBadTrace)
		}
		da, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated record", ErrBadTrace)
		}
		nm := (flags >> 1) & nonMemEscape
		if nm == nonMemEscape {
			nm, err = binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: truncated nonmem", ErrBadTrace)
			}
			if nm > 65535 {
				return nil, fmt.Errorf("%w: nonmem %d out of range", ErrBadTrace, nm)
			}
		}
		lastPC += unzigzag(dpc)
		lastA += unzigzag(da)
		out = append(out, Record{PC: uint64(lastPC), Addr: uint64(lastA), IsWrite: flags&1 == 1, NonMem: uint16(nm)})
	}
}

// Capture materializes n records from a generator.
func Capture(g Generator, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

// ReplayGenerator adapts a record slice to the Generator interface,
// wrapping around at the end (generators are infinite by contract; drivers
// bound runs by instruction count). The wrap restarts program phase
// behaviour, which is the same convention the multi-programmed methodology
// uses for region restarts.
type ReplayGenerator struct {
	name string
	recs []Record
	pos  int
	// Wraps counts how many times the replay restarted.
	Wraps uint64
}

// NewReplayGenerator wraps records in a Generator. It panics on an empty
// slice (an empty trace cannot satisfy the infinite-stream contract).
func NewReplayGenerator(name string, recs []Record) *ReplayGenerator {
	if len(recs) == 0 {
		panic("trace: empty replay trace")
	}
	return &ReplayGenerator{name: name, recs: recs}
}

// Name implements Generator.
func (g *ReplayGenerator) Name() string { return g.name }

// Next implements Generator.
func (g *ReplayGenerator) Next(rec *Record) {
	*rec = g.recs[g.pos]
	g.pos++
	if g.pos == len(g.recs) {
		g.pos = 0
		g.Wraps++
	}
}

// NextBatch implements BatchGenerator: one bulk copy up to the wrap point.
func (g *ReplayGenerator) NextBatch(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	n := copy(recs, g.recs[g.pos:])
	g.pos += n
	if g.pos == len(g.recs) {
		g.pos = 0
		g.Wraps++
	}
	return n
}

// Reset implements Generator.
func (g *ReplayGenerator) Reset() { g.pos = 0; g.Wraps = 0 }

// Len returns the number of records in one pass of the trace.
func (g *ReplayGenerator) Len() int { return len(g.recs) }

var _ BatchGenerator = (*ReplayGenerator)(nil)
