// Package workload provides the synthetic benchmark suite that stands in
// for the paper's SPEC CPU 2006 / CloudSuite / mlpack trace segments (see
// DESIGN.md, "Substitutions"). Each benchmark is a deterministic generator
// modelling the memory-behaviour class of its namesake: pointer chasing,
// streaming, LLC-thrashing loops, zipf-distributed object access, and so
// on. Benchmarks expose realistic program-counter structure (loop bodies
// emit stable PCs per static memory instruction) so PC-, offset-, burst-
// and address-based reuse-prediction features observe the signal they were
// designed for.
//
// The suite has 33 benchmarks with 3 segments each (99 segments), mirroring
// the paper's 33 benchmarks and 99 simpoints, and the same FIESTA-style
// 4-benchmark mix construction for multi-programmed experiments.
package workload

import (
	"fmt"

	"mpppb/internal/trace"
)

// Gen is the common generator chassis: archetype kernels push batches of
// records into an internal buffer via emit; Next drains it one record at a
// time. All kernels are infinite and deterministic.
type Gen struct {
	name  string
	buf   []trace.Record
	pos   int
	step  func() // pushes at least one record
	reset func() // restores kernel state to initial

	// nonMemPattern cycles per-record non-memory instruction counts to
	// model the instruction mix; set by newGen from the benchmark spec.
	nonMemPattern []uint16
	nmPos         int
}

// newGen builds a generator chassis. Kernel constructors call this and
// then assign step/reset.
func newGen(name string, nonMemAvg int) *Gen {
	g := &Gen{name: name}
	// A small deterministic pattern around the average keeps the
	// instruction mix from being perfectly uniform.
	a := uint16(nonMemAvg)
	var lo uint16
	if a > 0 {
		lo = a - 1
	}
	g.nonMemPattern = []uint16{a, lo, a + 1, a, a + 2, lo}
	return g
}

// Name implements trace.Generator.
func (g *Gen) Name() string { return g.name }

// Next implements trace.Generator.
func (g *Gen) Next(rec *trace.Record) {
	for g.pos >= len(g.buf) {
		g.buf = g.buf[:0]
		g.pos = 0
		g.step()
	}
	*rec = g.buf[g.pos]
	g.pos++
}

// NextBatch implements trace.BatchGenerator: it fills all of recs with
// bulk copies out of the internal buffer the kernels emit into, running
// kernel steps until recs is full. The record stream is identical to
// repeated Next calls.
func (g *Gen) NextBatch(recs []trace.Record) int {
	n := 0
	for n < len(recs) {
		if g.pos >= len(g.buf) {
			g.buf = g.buf[:0]
			g.pos = 0
			g.step()
		}
		c := copy(recs[n:], g.buf[g.pos:])
		g.pos += c
		n += c
	}
	return n
}

// Reset implements trace.Generator.
func (g *Gen) Reset() {
	g.buf = g.buf[:0]
	g.pos = 0
	g.nmPos = 0
	g.reset()
}

// emit appends one record, attaching the next non-memory instruction count
// from the pattern.
func (g *Gen) emit(pc, addr uint64, write bool) {
	nm := g.nonMemPattern[g.nmPos]
	g.nmPos++
	if g.nmPos == len(g.nonMemPattern) {
		g.nmPos = 0
	}
	g.buf = append(g.buf, trace.Record{PC: pc, Addr: addr, IsWrite: write, NonMem: nm})
}

var _ trace.BatchGenerator = (*Gen)(nil)

// pcBase derives a stable PC region for a named kernel instance from its
// address base, keeping distinct kernels' PCs distinct.
func pcBase(addrBase uint64, kernel int) uint64 {
	return 0x400000 + (addrBase>>24)&0xffff0 + uint64(kernel)<<12
}

// segName formats "benchmark-segment" names, e.g. "mcf_like-2".
func segName(bench string, seg int) string { return fmt.Sprintf("%s-%d", bench, seg) }
