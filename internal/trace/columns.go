package trace

// Column-major trace storage. A []Record stores one 24-byte struct per
// memory instruction; scanning it touches every field of every record even
// when the consumer streams them in order. Columns keeps each field in its
// own parallel slice — the struct-of-arrays mirror of Record — so one pass
// of the trace is four dense, independently prefetchable streams
// (19 bytes/record instead of 24, with no padding holes), batch refills
// are per-column bulk copies, and the file decoder can delta-decode
// straight into the columns once at load with no intermediate []Record.

// Columns is one run of trace records in column-major form. Index i of
// every slice describes the same record; the slices always have equal
// length.
type Columns struct {
	PCs    []uint64
	Addrs  []uint64
	Writes []bool
	NonMem []uint16
}

// Len returns the number of records held.
func (c *Columns) Len() int { return len(c.PCs) }

// Record assembles the i-th record.
func (c *Columns) Record(i int) Record {
	return Record{PC: c.PCs[i], Addr: c.Addrs[i], IsWrite: c.Writes[i], NonMem: c.NonMem[i]}
}

// append adds one record to the columns.
func (c *Columns) append(pc, addr uint64, isWrite bool, nonMem uint16) {
	c.PCs = append(c.PCs, pc)
	c.Addrs = append(c.Addrs, addr)
	c.Writes = append(c.Writes, isWrite)
	c.NonMem = append(c.NonMem, nonMem)
}

// grow pre-sizes every column to hold n records.
func (c *Columns) grow(n int) {
	c.PCs = make([]uint64, 0, n)
	c.Addrs = make([]uint64, 0, n)
	c.Writes = make([]bool, 0, n)
	c.NonMem = make([]uint16, 0, n)
}

// ColumnsOf transposes a record slice into column-major form.
func ColumnsOf(recs []Record) *Columns {
	c := &Columns{}
	c.grow(len(recs))
	for i := range recs {
		r := &recs[i]
		c.append(r.PC, r.Addr, r.IsWrite, r.NonMem)
	}
	return c
}

// Records transposes back to row-major form (tests and format round-trips).
func (c *Columns) Records() []Record {
	out := make([]Record, c.Len())
	for i := range out {
		out[i] = c.Record(i)
	}
	return out
}

// ColumnBatcher is the columnar extension of Generator: sources that hold
// their records in column-major form can refill a consumer's column
// buffers with per-column bulk copies, never materializing row-major
// records. The record stream (element i across the filled columns) is
// identical to repeated Next calls.
type ColumnBatcher interface {
	Generator
	// NextColumns fills up to max records into dst's columns — each must
	// have length >= max — and returns how many were produced (at least 1
	// for max > 0 while records remain; 0 means a finite source is
	// exhausted, as with BatchGenerator.NextBatch).
	NextColumns(dst *Columns, max int) int
}

// ColumnarReplay adapts column-major trace storage to the Generator
// interface, wrapping at the end like ReplayGenerator. Multiple
// ColumnarReplay cursors may share one read-only *Columns.
type ColumnarReplay struct {
	name string
	cols *Columns
	pos  int
	// Wraps counts how many times the replay restarted.
	Wraps uint64
}

// NewColumnarReplay wraps columns in a Generator. It panics on an empty
// trace (an empty trace cannot satisfy the infinite-stream contract).
func NewColumnarReplay(name string, cols *Columns) *ColumnarReplay {
	if cols.Len() == 0 {
		panic("trace: empty replay trace")
	}
	return &ColumnarReplay{name: name, cols: cols}
}

// Name implements Generator.
func (g *ColumnarReplay) Name() string { return g.name }

// Next implements Generator.
func (g *ColumnarReplay) Next(rec *Record) {
	*rec = g.cols.Record(g.pos)
	g.pos++
	if g.pos == g.cols.Len() {
		g.pos = 0
		g.Wraps++
	}
}

// NextBatch implements BatchGenerator for row-major consumers.
func (g *ColumnarReplay) NextBatch(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	n := g.cols.Len() - g.pos
	if n > len(recs) {
		n = len(recs)
	}
	for i := 0; i < n; i++ {
		recs[i] = g.cols.Record(g.pos + i)
	}
	g.advance(n)
	return n
}

// NextColumns implements ColumnBatcher: one bulk copy per column, up to
// the wrap point.
func (g *ColumnarReplay) NextColumns(dst *Columns, max int) int {
	if max == 0 {
		return 0
	}
	n := g.cols.Len() - g.pos
	if n > max {
		n = max
	}
	end := g.pos + n
	copy(dst.PCs[:n], g.cols.PCs[g.pos:end])
	copy(dst.Addrs[:n], g.cols.Addrs[g.pos:end])
	copy(dst.Writes[:n], g.cols.Writes[g.pos:end])
	copy(dst.NonMem[:n], g.cols.NonMem[g.pos:end])
	g.advance(n)
	return n
}

// advance moves the cursor, wrapping at the end of the trace.
func (g *ColumnarReplay) advance(n int) {
	g.pos += n
	if g.pos == g.cols.Len() {
		g.pos = 0
		g.Wraps++
	}
}

// Reset implements Generator.
func (g *ColumnarReplay) Reset() { g.pos = 0; g.Wraps = 0 }

// Len returns the number of records in one pass of the trace.
func (g *ColumnarReplay) Len() int { return g.cols.Len() }

var (
	_ BatchGenerator = (*ColumnarReplay)(nil)
	_ ColumnBatcher  = (*ColumnarReplay)(nil)
)
