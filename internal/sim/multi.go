package sim

import (
	"mpppb/internal/cpu"
	"mpppb/internal/stats"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// MultiResult summarizes one 4-core multi-programmed run.
type MultiResult struct {
	Mix workload.Mix
	// IPC is each core's measured instructions per cycle.
	IPC [4]float64
	// Instructions and Cycles are per-core measured totals.
	Instructions [4]uint64
	Cycles       [4]uint64
	// LLCMisses are shared-LLC misses (demand + prefetch) over the
	// measurement window.
	LLCMisses   uint64
	LLCAccesses uint64
	// MPKI is shared-LLC misses per 1000 instructions (all cores).
	MPKI float64
}

// WeightedSpeedup combines a run with per-segment standalone IPCs (each
// segment alone with the full LLC under LRU) into the paper's normalized
// weighted-speedup numerator (Section 4.5). Divide by the LRU run's value
// to normalize.
func (r MultiResult) WeightedSpeedup(singleIPC [4]float64) float64 {
	return stats.WeightedSpeedup(r.IPC[:], singleIPC[:])
}

// RunMulti simulates a 4-segment mix sharing the LLC. Scheduling follows
// the sample-balanced idea of FIESTA: the core with the smallest elapsed
// cycle count issues next, so all cores stay active and aligned in time.
// Warmup runs until every core has executed cfg.Warmup instructions, so
// each core's measurement window starts at the same program phase as its
// standalone reference run; measurement then runs until every core has
// executed cfg.Measure instructions (restarting its region as needed,
// which the infinite generators model implicitly).
func RunMulti(cfg Config, mix workload.Mix, pf PolicyFactory) MultiResult {
	var gens [4]trace.Generator
	for i, id := range mix {
		gens[i] = workload.NewGenerator(id, workload.CoreBase(i))
	}
	// Each core's statistics are snapshotted the moment it completes its
	// quota (it keeps running, so contention persists for the laggards),
	// keeping measurement windows comparable to the standalone reference
	// runs used for weighted speedup.
	res := MultiResult{Mix: mix}
	r := newMachine(cfg, pf, true, gens[:]...).run(nil, func(i int, c *cpu.Core) {
		res.IPC[i], res.Instructions[i], res.Cycles[i] = c.IPC(), c.Instructions(), c.Cycles()
	})
	res.LLCMisses, res.LLCAccesses, res.MPKI = r.LLCMisses, r.LLCAccesses, r.MPKI
	return res
}
