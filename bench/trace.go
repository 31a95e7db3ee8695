package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/sim"
	"mpppb/internal/trace"
)

// The traced run records spans from this package only, at the seams the
// simulator's public API already has: the cell (one sim.Run* call or one
// serve pass) is the parent span, and the calls it makes into the
// generator, the LLC policy and the serve client are aggregated into it
// by name. Calls are far too many to keep one by one (a cell makes about
// a million policy calls), so each aggregate counts every call and times
// a deterministic sample of them.

// sampleEvery is the policy-call sampling period: timing every call would
// add two clock reads to a call of a few tens of nanoseconds.
const sampleEvery = 16

// tracer keeps a traced run's spans in memory until write.
type tracer struct {
	t0    time.Time
	timer float64 // ns a time.Now/time.Since pair adds to a timed call
	spans []*span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), timer: clockCost()}
}

// clockCost is the median cost of one time.Now/time.Since pair, which
// every timed call also pays; aggregates subtract it.
func clockCost() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return median(xs)
}

// span is one timed interval; Calls aggregates the calls made inside it.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // -1 for a root
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Calls  map[string]*calls `json:"calls,omitempty"`
}

// calls aggregates one kind of call inside a span: N calls, of which
// Timed took TimedNS in all, delivering Items units of work.
type calls struct {
	N       uint64 `json:"n"`
	Timed   uint64 `json:"timed"`
	TimedNS int64  `json:"timed_ns"`
	Items   uint64 `json:"items,omitempty"`
}

func (c *calls) add(d time.Duration) {
	c.Timed++
	c.TimedNS += int64(d)
}

// mean is the time of one call, less the clock's own cost.
func (c *calls) mean(timer float64) float64 {
	if c == nil || c.Timed == 0 {
		return 0
	}
	return max(float64(c.TimedNS)/float64(c.Timed)-timer, 0)
}

// total estimates the time of all N calls from the timed ones.
func (c *calls) total(timer float64) float64 {
	if c == nil {
		return 0
	}
	return c.mean(timer) * float64(c.N)
}

func (t *tracer) begin(name string, parent *span) *span {
	s := &span{ID: len(t.spans), Parent: -1, Name: name, Start: int64(time.Since(t.t0)), Calls: map[string]*calls{}}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span) { s.End = int64(time.Since(t.t0)) }

func (s *span) ns() float64 { return float64(s.End - s.Start) }

// calls returns the named aggregate, creating it on first use.
func (s *span) calls(name string) *calls {
	c := s.Calls[name]
	if c == nil {
		c = &calls{}
		s.Calls[name] = c
	}
	return c
}

// write saves every span as JSON, children after their parents.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		ClockNS float64 `json:"clock_ns"`
		Spans   []*span `json:"spans"`
	}{t.timer, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// policyCalls are the aggregate names of the four policy hooks.
var policyCalls = [...]string{"hit", "victim", "fill", "evict"}

// timedPolicy times a sample of the calls the LLC makes into its
// replacement policy and counts the rest.
type timedPolicy struct {
	cache.ReplacementPolicy
	hit, victim, fill, evict *calls
	bypasses                 uint64
}

// wrapPolicy returns a factory whose policies report into s, and a
// function that returns the policy the factory last built.
func wrapPolicy(pf sim.PolicyFactory, s *span, policy string) (sim.PolicyFactory, func() *timedPolicy) {
	var made *timedPolicy
	return func(sets, ways int) cache.ReplacementPolicy {
		made = &timedPolicy{
			ReplacementPolicy: pf(sets, ways),
			hit:               s.calls("llc_policy." + policy + ".hit"),
			victim:            s.calls("llc_policy." + policy + ".victim"),
			fill:              s.calls("llc_policy." + policy + ".fill"),
			evict:             s.calls("llc_policy." + policy + ".evict"),
		}
		return made
	}, func() *timedPolicy { return made }
}

func (p *timedPolicy) Hit(set, way int, a cache.Access) {
	if p.hit.N++; p.hit.N%sampleEvery != 0 {
		p.ReplacementPolicy.Hit(set, way, a)
		return
	}
	t := time.Now()
	p.ReplacementPolicy.Hit(set, way, a)
	p.hit.add(time.Since(t))
}

func (p *timedPolicy) Victim(set int, a cache.Access) (way int, bypass bool) {
	if p.victim.N++; p.victim.N%sampleEvery != 0 {
		way, bypass = p.ReplacementPolicy.Victim(set, a)
	} else {
		t := time.Now()
		way, bypass = p.ReplacementPolicy.Victim(set, a)
		p.victim.add(time.Since(t))
	}
	if bypass {
		p.bypasses++
	}
	return way, bypass
}

func (p *timedPolicy) Fill(set, way int, a cache.Access) {
	if p.fill.N++; p.fill.N%sampleEvery != 0 {
		p.ReplacementPolicy.Fill(set, way, a)
		return
	}
	t := time.Now()
	p.ReplacementPolicy.Fill(set, way, a)
	p.fill.add(time.Since(t))
}

func (p *timedPolicy) Evict(set, way int, blockAddr uint64) {
	if p.evict.N++; p.evict.N%sampleEvery != 0 {
		p.ReplacementPolicy.Evict(set, way, blockAddr)
		return
	}
	t := time.Now()
	p.ReplacementPolicy.Evict(set, way, blockAddr)
	p.evict.add(time.Since(t))
}

// accesses is the number of LLC lookups the policy saw: hits, fills and
// declined fills (writebacks included, unlike sim.Result.LLCAccesses).
func (p *timedPolicy) accesses() uint64 { return p.hit.N + p.misses() }

func (p *timedPolicy) misses() uint64 { return p.fill.N + p.bypasses }

// trainEvents is the number of sampler training events of an MPPPB
// policy, 0 for any other.
func (p *timedPolicy) trainEvents() uint64 {
	if m, ok := p.ReplacementPolicy.(*core.MPPPB); ok {
		return m.Stats().TrainEvents
	}
	return 0
}

// timedGen times every batch refill of a generator. The wrappers below
// implement exactly the optional refill interfaces the wrapped generator
// does, so the simulator's batch reader takes the same path it would
// untraced.
type timedGen struct {
	trace.Generator
	refill *calls
}

type timedBatchGen struct {
	*timedGen
	b trace.BatchGenerator
}

type timedColumnGen struct {
	*timedGen
	c trace.ColumnBatcher
}

type timedBatchColumnGen struct {
	timedBatchGen
	c trace.ColumnBatcher
}

func wrapGen(g trace.Generator, refill *calls) trace.Generator {
	base := &timedGen{Generator: g, refill: refill}
	b, isBatch := g.(trace.BatchGenerator)
	c, isColumn := g.(trace.ColumnBatcher)
	switch {
	case isBatch && isColumn:
		return timedBatchColumnGen{timedBatchGen{base, b}, c}
	case isBatch:
		return timedBatchGen{base, b}
	case isColumn:
		return timedColumnGen{base, c}
	}
	return base
}

// done records one refill that started at t and delivered n records.
func (g *timedGen) done(t time.Time, n int) int {
	g.refill.N++
	g.refill.add(time.Since(t))
	g.refill.Items += uint64(n)
	return n
}

func (g timedBatchGen) NextBatch(recs []trace.Record) int {
	t := time.Now()
	return g.done(t, g.b.NextBatch(recs))
}

func (g timedColumnGen) NextColumns(dst *trace.Columns, n int) int {
	t := time.Now()
	return g.done(t, g.c.NextColumns(dst, n))
}

func (g timedBatchColumnGen) NextColumns(dst *trace.Columns, n int) int {
	t := time.Now()
	return g.done(t, g.c.NextColumns(dst, n))
}
