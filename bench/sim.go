package main

import (
	"fmt"
	"runtime"
	"time"

	"mpppb/internal/sim"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
	"mpppb/internal/xrand"
)

// The fig6 segments, one per reuse class: zipf, pointer chase, thrashing
// loop and stream. A gain on one class must not hide a loss on another.
var fig6Segments = []string{"gcc_like-0", "mcf_like-1", "libquantum_like-1", "lbm_like-1"}

// cellOut is what one sim.Run* call produced.
type cellOut struct {
	text   string // the deterministic result, digested
	acc    uint64 // measured-window LLC accesses
	misses uint64
	ipc    float64 // 0 when the call has no timing model
}

func singleOut(r sim.Result) cellOut {
	return cellOut{text: fmt.Sprintf("%+v", r.Deterministic()), acc: r.LLCAccesses, misses: r.LLCMisses, ipc: r.IPC}
}

// simCell is one sim.Run* call: a segment or mix under one policy.
type simCell struct {
	class, policy string
	pf            sim.PolicyFactory
	// run calls the simulator with pf, wrapping its generator into s when s
	// is non-nil.
	run func(pf sim.PolicyFactory, s *span) cellOut
	// delivery, when set, times outside the cell span the generator work
	// of a cell whose sim.Run* call builds its own generators.
	delivery func(refill *calls)
}

// cellRun is one execution of a cell.
type cellRun struct {
	cell   *simCell
	round  int
	factor float64 // host factor measured just before the cell
	sec    float64
	out    cellOut
	span   *span // nil when untraced
	policy *timedPolicy
	failed bool
}

// simRunner measures the three simulator workloads: every round runs each
// class under each policy, policies interleaved within a class.
type simRunner struct {
	policies []string // lru first, then the MPPPB policies
	primary  string   // the MPPPB policy of mpppb_over_lru
	// sameAccesses holds on the single-thread machine: bypassed fills
	// still fill the core caches, so the LLC access stream and its count
	// do not depend on the LLC policy.
	sameAccesses bool
	classes      [][]*simCell // per class, one cell per policy
	check        *checker
	rounds       int
	runs         []*cellRun
	failures     []string
}

func newSimRunner(name string, o options, policies []string, primary string, sameAccesses bool) (*simRunner, error) {
	c, err := newChecker(name, o)
	if err != nil {
		return nil, err
	}
	return &simRunner{policies: policies, primary: primary, sameAccesses: sameAccesses, check: c}, nil
}

func (s *simRunner) addClass(class string, run func(pf sim.PolicyFactory, sp *span) cellOut) error {
	var cells []*simCell
	for _, p := range s.policies {
		pf, err := sim.Policy(p)
		if err != nil {
			return err
		}
		cells = append(cells, &simCell{class: class, policy: p, pf: pf, run: run})
	}
	s.classes = append(s.classes, cells)
	return nil
}

func (s *simRunner) close() {}

// round returns the seconds spent inside the cells, which leaves out the
// delivery estimate a traced mc_mix round makes between cells.
func (s *simRunner) round(tr *tracer, reverse bool) float64 {
	var sec float64
	var parent *span
	if tr != nil {
		parent = tr.begin(fmt.Sprintf("round %d", s.rounds), nil)
	}
	for _, cells := range s.classes {
		var runs []*cellRun
		for i := range cells {
			c := cells[i]
			if reverse {
				c = cells[len(cells)-1-i]
			}
			r := s.runCell(c, tr, parent)
			sec += r.sec
			runs = append(runs, r)
		}
		if s.sameAccesses {
			for _, r := range runs[1:] {
				if r.out.acc != runs[0].out.acc && !r.failed && !runs[0].failed {
					r.failed = true
					s.failures = append(s.failures, fmt.Sprintf("%s/%s: %d LLC accesses, %s had %d",
						r.cell.class, r.cell.policy, r.out.acc, runs[0].cell.policy, runs[0].out.acc))
				}
			}
		}
	}
	if tr != nil {
		tr.end(parent)
	}
	s.rounds++
	return sec
}

// runCell runs one cell from a collected heap, so that no cell pays for
// collecting its predecessor's tables and the peak resident set does not
// depend on when the collector last ran.
func (s *simRunner) runCell(c *simCell, tr *tracer, parent *span) *cellRun {
	runtime.GC()
	r := &cellRun{cell: c, round: s.rounds, factor: hostFactor()}
	pf := c.pf
	var made func() *timedPolicy
	if tr != nil {
		r.span = tr.begin(c.class+"/"+c.policy, parent)
		pf, made = wrapPolicy(pf, r.span, c.policy)
	}
	t := time.Now()
	err := protect(func() { r.out = c.run(pf, r.span) })
	r.sec = time.Since(t).Seconds()
	if tr != nil {
		tr.end(r.span)
		r.policy = made()
		if c.delivery != nil && err == nil {
			c.delivery(r.span.calls("workload.refill"))
		}
	}
	key := c.class + "/" + c.policy
	if err != nil {
		r.failed = true
		s.failures = append(s.failures, fmt.Sprintf("%s: %v", key, err))
	} else if why := s.check.check(key, digest(r.out.text)); why != "" {
		r.failed = true
		s.failures = append(s.failures, why)
	}
	s.runs = append(s.runs, r)
	return r
}

// protect runs f, turning a panic (the simulator's way of failing a run) into
// an error.
func protect(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	f()
	return nil
}

// rate accumulates LLC accesses over host seconds.
type rate struct {
	acc float64
	sec float64
}

func (r *rate) add(acc uint64, sec float64) { r.acc += float64(acc); r.sec += sec }
func (r rate) perSec() float64              { return r.acc / r.sec }

// finish reports every time at reference host speed (hostspeed.go): each
// cell's time is divided by the host factor measured just before it.
func (s *simRunner) finish(rep *report, tr *tracer) {
	rep.aliases = map[string]string{"tail_us": "worst_class_us_per_256acc"}
	rep.digests = s.check.first
	rep.attempted, rep.failed = len(s.runs), len(s.failures) // a cell fails once at most
	rep.notes = append(rep.notes, s.failures...)

	mpppb := map[string]bool{}
	for _, p := range s.policies[1:] {
		mpppb[p] = true
	}
	perClass := map[string]*series{}
	var classKeys []string
	for round := 0; round < s.rounds; round++ {
		var all, fam rate
		var factors []float64
		byPolicy := map[string]*rate{}
		for _, p := range s.policies {
			byPolicy[p] = &rate{}
		}
		for _, r := range s.runs {
			if r.round != round || r.span != nil || r.failed {
				continue
			}
			sec := r.sec / r.factor
			factors = append(factors, r.factor)
			all.add(r.out.acc, sec)
			byPolicy[r.cell.policy].add(r.out.acc, sec)
			if mpppb[r.cell.policy] {
				fam.add(r.out.acc, sec)
			}
			key := r.cell.class + "/" + r.cell.policy
			if perClass[key] == nil {
				perClass[key] = &series{name: key, unit: "us"}
				classKeys = append(classKeys, key)
			}
			perClass[key].add(sec / float64(r.out.acc) * 256e6)
		}
		if len(factors) == 0 {
			continue // a traced round
		}
		rep.metric(false, "host_factor", "ratio").add(median(factors))
		rep.metric(false, "llc_acc_per_s", "acc/s").add(all.perSec())
		rep.metric(false, "mpppb_acc_per_s", "acc/s").add(fam.perSec())
		for _, p := range s.policies {
			rep.metric(false, "llc_acc_per_s."+p, "acc/s").add(byPolicy[p].perSec())
		}
		rep.metric(false, "mpppb_over_lru", "ratio").add(byPolicy[s.primary].perSec() / byPolicy["lru"].perSec())
	}
	// The slowest class: the segment (or mix) and policy whose median host
	// time per 256 LLC accesses is highest.
	var worst *series
	for _, k := range classKeys {
		if worst == nil || median(perClass[k].xs) > median(worst.xs) {
			worst = perClass[k]
		}
	}
	if worst != nil {
		tail := rep.metric(false, "worst_class_us_per_256acc", "us")
		tail.xs = worst.xs
		rep.rounds += ", slowest class " + worst.name
	}
	if tr != nil {
		s.layers(rep, tr)
	}
}

// layers derives the per-layer metrics from the traced rounds, one sample
// per round.
func (s *simRunner) layers(rep *report, tr *tracer) {
	for round := 0; round < s.rounds; round++ {
		var acc, misses, cellNS, refillNS, records, policyNS float64
		var ipc []float64
		var fam struct{ acc, policyNS, hitNS, hits, missNS, misses, seen, train, bypasses float64 }
		type hookSums struct{ ns, n [4]float64 } // per hook, in policyCalls order
		perPolicy := map[string]*hookSums{}
		for _, pol := range s.policies {
			perPolicy[pol] = &hookSums{}
		}
		traced := false
		for _, r := range s.runs {
			if r.round != round || r.span == nil || r.failed {
				continue
			}
			traced = true
			acc += float64(r.out.acc)
			misses += float64(r.out.misses)
			if r.out.ipc > 0 {
				ipc = append(ipc, r.out.ipc)
			}
			f := r.factor
			cellNS += r.span.ns() / f
			refill := r.span.Calls["workload.refill"]
			refillNS += refill.total(tr.timer) / f
			if refill != nil {
				records += float64(refill.Items)
			}
			p := r.policy
			var hookNS [4]float64
			sums := perPolicy[r.cell.policy]
			for i, c := range []*calls{p.hit, p.victim, p.fill, p.evict} {
				hookNS[i] = c.total(tr.timer) / f
				sums.ns[i] += hookNS[i]
				sums.n[i] += float64(c.N)
			}
			ns := hookNS[0] + hookNS[1] + hookNS[2] + hookNS[3]
			policyNS += ns
			if r.cell.policy != "lru" {
				fam.acc += float64(r.out.acc)
				fam.policyNS += ns
				fam.hitNS += hookNS[0]
				fam.hits += float64(p.hit.N)
				fam.missNS += hookNS[1] + hookNS[2] + hookNS[3]
				fam.misses += float64(p.misses())
				fam.seen += float64(p.accesses())
				fam.train += float64(p.trainEvents())
				fam.bypasses += float64(p.bypasses)
			}
		}
		if !traced {
			continue
		}
		rep.metric(true, "delivery.ns_per_acc", "ns").add(refillNS / acc)
		rep.metric(true, "policy.ns_per_acc", "ns").add(fam.policyNS / fam.acc)
		rep.metric(true, "policy.ns_per_hit", "ns").add(fam.hitNS / fam.hits)
		rep.metric(true, "policy.ns_per_miss", "ns").add(fam.missNS / fam.misses)
		rep.metric(true, "rest.ns_per_acc", "ns").add((cellNS - policyNS - refillNS) / acc)
		rep.metric(true, "core.train_per_acc", "ratio").add(fam.train / fam.seen)
		rep.metric(true, "core.bypass_ratio", "ratio").add(fam.bypasses / fam.misses)
		for _, pol := range s.policies {
			sums := perPolicy[pol]
			var n float64
			for i, hook := range policyCalls {
				rep.metric(true, "llc_policy."+pol+".ns_per_"+hook, "ns").add(sums.ns[i] / sums.n[i])
				n += sums.n[i]
			}
			rep.metric(true, "llc_policy."+pol+".calls", "count").add(n)
		}
		if records > 0 {
			rep.metric(true, "workload.ns_per_record", "ns").add(refillNS / records)
			rep.metric(true, "workload.records", "count").add(records)
		}
		rep.metric(true, "cache.llc_accesses", "count").add(acc)
		rep.metric(true, "cache.llc_miss_ratio", "ratio").add(misses / acc)
		if len(ipc) > 0 {
			rep.metric(true, "cpu.ipc", "ipc").add(median(ipc))
		}
	}
}

func setupSingle(o options) (runner, error) {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 1_000_000/o.scale, 2_000_000/o.scale
	s, err := newSimRunner("st_timing", o, []string{"lru", "mpppb"}, "mpppb", true)
	if err != nil {
		return nil, err
	}
	for _, seg := range fig6Segments {
		id, err := workload.ParseSegmentID(seg)
		if err != nil {
			return nil, err
		}
		g := workload.NewSeededGenerator(id, 0, o.seed)
		err = s.addClass(seg, func(pf sim.PolicyFactory, sp *span) cellOut {
			var gen trace.Generator = g
			if sp != nil {
				gen = wrapGen(g, sp.calls("workload.refill"))
			}
			return singleOut(sim.RunSingle(cfg, gen, pf))
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replayRecords covers the 3M instructions of a replay_fast cell without
// wrapping (a fig6 segment averages about 3.2 instructions per record).
const replayRecords = 1_200_000

func setupReplay(o options) (runner, error) {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 1_000_000/o.scale, 2_000_000/o.scale
	s, err := newSimRunner("replay_fast", o, []string{"lru", "mpppb"}, "mpppb", true)
	if err != nil {
		return nil, err
	}
	for _, seg := range fig6Segments {
		id, err := workload.ParseSegmentID(seg)
		if err != nil {
			return nil, err
		}
		// One capture's rows at a time, so the set-up's memory peak does
		// not depend on when the collector runs.
		runtime.GC()
		recs := trace.Capture(workload.NewSeededGenerator(id, 0, o.seed), replayRecords/int(o.scale))
		replay := trace.NewColumnarReplay(seg, trace.ColumnsOf(recs))
		err = s.addClass(seg, func(pf sim.PolicyFactory, sp *span) cellOut {
			var gen trace.Generator = replay
			if sp != nil {
				gen = wrapGen(replay, sp.calls("workload.refill"))
			}
			return singleOut(sim.RunFastMPKI(cfg, gen, pf))
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mixes returns mc_mix's two mixes: the first two of the canonical mix
// list, each with its segments assigned to cores in a seeded order (seed 0
// keeps the canonical order). The seed changes the address bases and the
// interleaving of the cores, not which segments share an LLC, so the work
// stays the same across seeds.
func mixes(seed uint64) []workload.Mix {
	ms := workload.Mixes(2, workload.DefaultMixSeed)
	if seed == 0 {
		return ms
	}
	rng := xrand.New(seed)
	for i, m := range ms {
		for core, j := range rng.Perm(len(m)) {
			ms[i][core] = m[j]
		}
	}
	return ms
}

func setupMulti(o options) (runner, error) {
	cfg := sim.MultiCoreConfig()
	cfg.Warmup, cfg.Measure = 125_000/o.scale, 500_000/o.scale
	s, err := newSimRunner("mc_mix", o, []string{"lru", "mpppb-srrip", "mpppb-adaptive-srrip"}, "mpppb-srrip", false)
	if err != nil {
		return nil, err
	}
	lru, err := sim.Policy("lru")
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes(o.seed) {
		// The standalone IPCs that normalise weighted speedup (Section
		// 4.5): each segment alone under LRU, as sim.SingleIPCCache runs
		// them, one run at a time from a collected heap so that the
		// set-up's memory peak is one run's whenever the collector runs.
		var ipc [4]float64
		for core, id := range mix {
			runtime.GC()
			ipc[core] = sim.RunSingle(cfg, workload.NewGenerator(id, workload.CoreBase(0)), lru).IPC
		}
		err := s.addClass(fmt.Sprintf("mix%d", i), func(pf sim.PolicyFactory, _ *span) cellOut {
			r := sim.RunMulti(cfg, mix, pf)
			return cellOut{
				text: fmt.Sprintf("%+v ws=%v", r, r.WeightedSpeedup(ipc)),
				acc:  r.LLCAccesses, misses: r.LLCMisses,
				ipc: (r.IPC[0] + r.IPC[1] + r.IPC[2] + r.IPC[3]) / 4,
			}
		})
		if err != nil {
			return nil, err
		}
		for _, c := range s.classes[i] {
			c.delivery = func(refill *calls) { drainMix(cfg, mix, refill) }
		}
	}
	return s, nil
}

// drainMix estimates the generator time of a RunMulti cell, which builds
// its own generators: it drains fresh copies of the mix's four generators
// for each core's warmup and measured instructions. Cores that finish
// early keep running in the cell, so this is a lower bound.
func drainMix(cfg sim.Config, mix workload.Mix, refill *calls) {
	var gens [4]trace.Generator
	for i := range gens {
		gens[i] = workload.NewGenerator(mix[i], workload.CoreBase(i))
	}
	var buf [256]trace.Record
	for _, g := range gens {
		var instr uint64
		for instr < cfg.Warmup+cfg.Measure {
			refill.N++
			t := time.Now()
			n := trace.FillBatch(g, buf[:])
			refill.add(time.Since(t))
			refill.Items += uint64(n)
			for _, r := range buf[:n] {
				instr += r.Instructions()
			}
		}
	}
}
