package workload

import (
	"fmt"

	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// Weighted-mix open-loop generator family: a benchmark is a set of named
// scripts (each an archetype kernel) with integer weights; every
// transaction draws one script by weight — cumulative-weight binary
// search, the neobench Scripts.Choose scheme — and emits a short burst of
// its records. Arrivals are paced open-loop in simulated time: the mix
// schedules one transaction per arrival interval of instructions and pads
// inter-arrival gaps with non-memory instructions, so the reference rate
// is set by the schedule, not by the "service" each transaction performs.
// This models multi-tenant server nodes where unrelated request types
// interleave in one LLC, a locality regime the SPEC-like core suite does
// not cover.

// Script is one component of a weighted mix.
type Script struct {
	// Name labels the script, e.g. "kv_point".
	Name string
	// Weight is the script's relative draw weight; must be positive.
	Weight int
	// Tx is the number of records one transaction of this script emits.
	Tx int
	// Think is an optional per-script think time: non-memory instructions
	// padded after each of this script's transactions, modelling clients
	// that pace themselves between requests of that type.
	Think int
	// Make builds the script's kernel at a seed and address base.
	Make func(seed, base uint64) *Gen
}

// Scripts is a weighted script set with a precomputed cumulative-weight
// table for O(log n) choice.
type Scripts struct {
	list  []Script
	cum   []uint64 // cum[i] = sum of weights 0..i
	total uint64
}

// NewScripts validates the set and builds the cumulative-weight table. It
// panics on an empty set or a non-positive weight (programming error:
// script sets are static preset definitions).
func NewScripts(list ...Script) Scripts {
	if len(list) == 0 {
		panic("workload: empty script set")
	}
	s := Scripts{list: list, cum: make([]uint64, len(list))}
	for i, sc := range list {
		if sc.Weight <= 0 {
			panic(fmt.Sprintf("workload: script %q has non-positive weight %d", sc.Name, sc.Weight))
		}
		if sc.Tx <= 0 {
			panic(fmt.Sprintf("workload: script %q has non-positive tx length %d", sc.Name, sc.Tx))
		}
		s.total += uint64(sc.Weight)
		s.cum[i] = s.total
	}
	return s
}

// Choose draws one script index with probability proportional to its
// weight: a uniform point in [1, total] located by binary search for the
// first cumulative weight >= point.
func (s *Scripts) Choose(rng *xrand.RNG) int {
	if len(s.list) == 1 {
		return 0
	}
	point := rng.Uint64n(s.total) + 1
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < point {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Names returns the script names in definition order.
func (s *Scripts) Names() []string {
	names := make([]string, len(s.list))
	for i, sc := range s.list {
		names[i] = sc.Name
	}
	return names
}

// Weights returns the script weights in definition order.
func (s *Scripts) Weights() []int {
	ws := make([]int, len(s.list))
	for i, sc := range s.list {
		ws[i] = sc.Weight
	}
	return ws
}

// MixGen is the weighted-mix generator. It satisfies trace.BatchGenerator
// through the embedded Gen chassis.
type MixGen struct {
	*Gen
	scripts  Scripts
	interval uint64 // open-loop arrival interval in instructions; 0 = unpaced
	seed     uint64
	parts    []*Gen
	rng      *xrand.RNG

	counts   []uint64 // transactions drawn per script
	arrivals uint64
	instr    uint64 // instructions emitted so far (incl. pacing pads)
}

// NewMix builds a weighted-mix generator. Each script's kernel gets a
// distinct sub-seed and a disjoint sub-region of the address base, so
// scripts never alias each other's footprints.
func NewMix(name string, seed, base uint64, interval int, scripts Scripts) *MixGen {
	if interval < 0 {
		panic("workload: negative mix interval")
	}
	g := newGen(name, 0)
	m := &MixGen{
		Gen:      g,
		scripts:  scripts,
		interval: uint64(interval),
		seed:     seed,
		parts:    make([]*Gen, len(scripts.list)),
		rng:      xrand.New(seed),
		counts:   make([]uint64, len(scripts.list)),
	}
	for i, sc := range scripts.list {
		// Sub-regions are 64GB apart inside the caller's 1TB core region.
		m.parts[i] = sc.Make(seed+uint64(i+1)*0x9e3779b97f4a7c15, base+uint64(i+1)<<36)
	}
	g.step = m.step
	g.reset = m.resetState
	return m
}

// step emits one transaction: a weighted script choice, that script's
// burst of records, then open-loop pacing and think-time padding folded
// into the records' non-memory counts.
func (m *MixGen) step() {
	i := m.scripts.Choose(m.rng)
	m.counts[i]++
	sc := m.scripts.list[i]
	start := len(m.Gen.buf)
	var rec trace.Record
	for k := 0; k < sc.Tx; k++ {
		m.parts[i].Next(&rec)
		m.Gen.buf = append(m.Gen.buf, rec)
	}
	// Open-loop pacing: this arrival is scheduled at arrivals*interval
	// instructions; if the stream is ahead of the schedule, pad the gap
	// onto the transaction's first record (capped by the NonMem field).
	if m.interval > 0 {
		if target := m.arrivals * m.interval; target > m.instr {
			pad(&m.Gen.buf[start], target-m.instr)
		}
	}
	if sc.Think > 0 {
		pad(&m.Gen.buf[len(m.Gen.buf)-1], uint64(sc.Think))
	}
	m.arrivals++
	for k := start; k < len(m.Gen.buf); k++ {
		m.instr += m.Gen.buf[k].Instructions()
	}
}

// pad adds non-memory instructions to a record, saturating at the NonMem
// field's capacity.
func pad(r *trace.Record, n uint64) {
	if headroom := uint64(65535 - r.NonMem); n > headroom {
		n = headroom
	}
	r.NonMem += uint16(n)
}

func (m *MixGen) resetState() {
	m.rng.Seed(m.seed)
	for i, p := range m.parts {
		p.Reset()
		m.counts[i] = 0
	}
	m.arrivals = 0
	m.instr = 0
}

// Scripts returns the mix's script set.
func (m *MixGen) Scripts() *Scripts { return &m.scripts }

// ScriptCounts returns how many transactions each script has emitted since
// the last Reset, in definition order.
func (m *MixGen) ScriptCounts() []uint64 {
	out := make([]uint64, len(m.counts))
	copy(out, m.counts)
	return out
}

var _ trace.BatchGenerator = (*MixGen)(nil)

// mixFamily wraps a preset constructor as a registered extension
// benchmark.
func mixFamily(name, class string, mk func(seg int, seed, base uint64) *MixGen) FamilyBenchmark {
	return FamilyBenchmark{Name: name, Class: class, Make: func(seg int, base uint64) trace.Generator {
		m := mk(seg, seedFor(name, seg), base)
		m.Gen.name = segName(name, seg)
		m.Reset()
		return m
	}}
}

// The mix presets. Footprints reuse the archetype kernels at server-ish
// sizes; segments scale footprints with the usual 3/4, 1x, 3/2 phase
// multiplier. Arrival intervals are in instructions per transaction.
func init() {
	// mix_frontend: a web front end — zipf-hot object cache lookups,
	// session-state reads, and a steady log-append stream.
	registerFamily(mixFamily("mix_frontend", "mix web-serving", func(seg int, seed, base uint64) *MixGen {
		return NewMix("", seed, base, 600, NewScripts(
			Script{Name: "obj_cache", Weight: 70, Tx: 6, Make: func(seed, base uint64) *Gen {
				return hashTableKernel("", seed, base, int(scale(seg, 96*1024)), 3, 0.95, 2)
			}},
			Script{Name: "session", Weight: 20, Tx: 4, Make: func(seed, base uint64) *Gen {
				return zipfObjectKernel("", seed, base, int(scale(seg, 32*1024)), 256, []uint64{0, 24, 96}, 0.9, 5*1024, 70, 20, 2)
			}},
			Script{Name: "log_append", Weight: 10, Tx: 8, Think: 200, Make: func(seed, base uint64) *Gen {
				return streamKernel("", seed, base, scale(seg, 8*blocksPerMB), 1, 4, 4, 2)
			}},
		))
	}))
	// mix_oltp: a transactional store — point lookups, index walks, and
	// occasional full-partition scans that thrash the LLC.
	registerFamily(mixFamily("mix_oltp", "mix oltp", func(seg int, seed, base uint64) *MixGen {
		return NewMix("", seed, base, 400, NewScripts(
			Script{Name: "kv_point", Weight: 60, Tx: 4, Make: func(seed, base uint64) *Gen {
				return hashTableKernel("", seed, base, int(scale(seg, 128*1024)), 2, 0.9, 2)
			}},
			Script{Name: "index_walk", Weight: 25, Tx: 6, Make: func(seed, base uint64) *Gen {
				return chaseKernel("", seed, base, int(scale(seg, 64*1024)), 2, 2)
			}},
			Script{Name: "part_scan", Weight: 15, Tx: 16, Think: 500, Make: func(seed, base uint64) *Gen {
				return loopScanKernel("", seed, base, scale(seg, 2*blocksPerMB), 4*blocksPerKB, 2)
			}},
		))
	}))
	// mix_batch: an analytics node — unpaced ETL streaming, sparse join
	// gathers, and matrix-factor updates contending for the cache.
	registerFamily(mixFamily("mix_batch", "mix analytics", func(seg int, seed, base uint64) *MixGen {
		return NewMix("", seed, base, 0, NewScripts(
			Script{Name: "etl_stream", Weight: 40, Tx: 32, Make: func(seed, base uint64) *Gen {
				return streamKernel("", seed, base, scale(seg, 16*blocksPerMB), 1, 6, 6, 2)
			}},
			Script{Name: "join_gather", Weight: 35, Tx: 16, Make: func(seed, base uint64) *Gen {
				return gatherKernel("", seed, base, 1*blocksPerMB, scale(seg, 8*blocksPerMB), 2, 2)
			}},
			Script{Name: "factor_mat", Weight: 25, Tx: 16, Make: func(seed, base uint64) *Gen {
				return matrixKernel("", seed, base, 1*blocksPerMB, int(scale(seg, 48*1024)), 2, 0.9, 2)
			}},
		))
	}))
}
