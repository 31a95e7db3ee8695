package main

import (
	"time"

	"mpppb/internal/sim"
	"mpppb/internal/trace"
	"mpppb/internal/workload"
)

// The layer ladder runs one fig6 segment with the simulator's layers
// switched on one at a time. Every rung consumes the same records, so the
// gap between two rungs is the host time of the layer the upper one adds:
// hier-gen is L1/L2 and the LRU LLC, prefetch-hier the prefetcher,
// cpu-prefetch the timing model, mpppb-cpu the MPPPB policy over LRU. It
// runs untraced, after a traced run's rounds, and reports at reference
// host speed.
var rungs = []string{"gen", "hier", "prefetch", "cpu", "mpppb"}

const ladderRepeats = 5

func ladder(rep *report, o options) {
	g := workload.NewSeededGenerator(workload.SegmentID{Bench: "gcc_like", Seg: 0}, 0, o.seed)
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 500_000/o.scale, 1_000_000/o.scale
	noPrefetch := cfg
	noPrefetch.Prefetch = false
	// Both names are built into sim.Policy, so neither lookup can fail.
	lru, _ := sim.Policy("lru")
	mpppb, _ := sim.Policy("mpppb")
	records := float64(drain(g, cfg))
	for r := range ladderRepeats {
		for i := range rungs {
			rung := rungs[i]
			if r%2 == 1 {
				rung = rungs[len(rungs)-1-i]
			}
			f := hostFactor()
			t := time.Now()
			switch rung {
			case "gen":
				drain(g, cfg)
			case "hier":
				sim.RunFastMPKI(noPrefetch, g, lru)
			case "prefetch":
				sim.RunFastMPKI(cfg, g, lru)
			case "cpu":
				sim.RunSingle(cfg, g, lru)
			case "mpppb":
				sim.RunSingle(cfg, g, mpppb)
			}
			rep.metric(true, "ladder."+rung+".ns_per_record", "ns").add(float64(time.Since(t)) / f / records)
		}
	}
}

// drain reads the records a sim.Run* call with cfg consumes, through
// trace.FillBatch and the simulator's per-phase instruction count, and
// returns how many there were.
func drain(g trace.Generator, cfg sim.Config) int {
	g.Reset()
	var buf [256]trace.Record
	n, pos, count := 0, 0, 0
	for _, limit := range []uint64{cfg.Warmup, cfg.Measure} {
		for instr := uint64(0); instr < limit; count++ {
			if pos == n {
				n, pos = trace.FillBatch(g, buf[:]), 0
			}
			instr += buf[pos].Instructions()
			pos++
		}
	}
	return count
}
