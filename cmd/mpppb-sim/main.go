// Command mpppb-sim runs one benchmark segment (or a whole benchmark, or
// the full suite) under one or more LLC policies and prints IPC and MPKI.
//
// Examples:
//
//	mpppb-sim -bench mcf_like -policy lru,mpppb
//	mpppb-sim -bench all -policy lru,hawkeye,perceptron,mpppb -measure 4000000
//	mpppb-sim -bench libquantum_like -seg 1 -policy min
//
// Large sweeps (-bench all with many policies) can checkpoint with
// -journal FILE; -resume skips the (segment, policy) runs already on
// disk. Failed runs print NA cells and exit 3 instead of aborting the
// whole grid. -listen HOST:PORT serves live /metrics, /status and
// /debug/pprof for the run; -progress 10s prints a stderr ticker.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"mpppb"
	"mpppb/internal/experiments"
	"mpppb/internal/runspec"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

func main() {
	var shape struct {
		Verbose bool `json:"verbose"`
	}
	s := runspec.New(flag.CommandLine, "mpppb-sim", sim.DefaultWarmup, sim.DefaultMeasure, runspec.Duel, &shape)
	var (
		bench    = flag.String("bench", "mcf_like", "benchmark name, or 'all' for the whole suite")
		seg      = flag.Int("seg", -1, "segment index (0-2), or -1 for all segments")
		policies = flag.String("policy", "lru,mpppb", "comma-separated policy names (see -list)")
		list     = flag.Bool("list", false, "list benchmarks and policies, then exit")
	)
	flag.BoolVar(&shape.Verbose, "v", false, "after mpppb runs, print decision counters and per-feature weight statistics")
	flag.Parse()

	if *list {
		fmt.Println("policies:", strings.Join(sim.PolicyNames(), " "), "min")
		fmt.Println("benchmarks:")
		classes := workload.Classes()
		for _, b := range workload.AllBenchmarks() {
			fmt.Printf("  %-22s %s\n", b, classes[b])
		}
		fmt.Println("  trace:<path>           external-trace (ingested binary trace)")
		return
	}

	// Every (segment, policy) run is independent: fan the grid across the
	// worker pool, then print rows in grid order so output is identical at
	// any -j.
	type job struct {
		id    workload.SegmentID
		pname string
	}
	var jobs []job
	var keys []string
	pols := s.Policies("policy", *policies, "min")
	for _, id := range s.Segments(*bench, *seg) {
		for _, pname := range pols {
			jobs = append(jobs, job{id, pname})
			keys = append(keys, "sim/"+id.String()+"/"+pname)
		}
	}
	cfg := s.Config(sim.SingleThreadConfig())
	run := s.Start()
	type rowInfo struct {
		Res  mpppb.Result `json:"res"`
		Info string       `json:"info,omitempty"`
	}
	rows, rowErrs, err := experiments.RunCells(run, keys, func(_ context.Context, i int) (rowInfo, error) {
		jb := jobs[i]
		if shape.Verbose && (jb.pname == "mpppb" || jb.pname == "mpppb-srrip") {
			res, info, err := mpppb.RunVerbose(cfg, jb.id, jb.pname)
			return rowInfo{Res: res, Info: info}, err
		}
		res, err := sim.RunNamed(cfg, workload.NewGenerator(jb.id, workload.CoreBase(0)), jb.pname, run.Duel)
		return rowInfo{Res: res}, err
	})
	if err != nil {
		s.Exit(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "segment\tpolicy\tIPC\tMPKI\tLLC misses\tbypasses")
	for i, jb := range jobs {
		if rowErrs[i] != nil {
			fmt.Fprintf(w, "%s\t%s\tNA\tNA\tNA\tNA\n", jb.id, jb.pname)
			continue
		}
		res := rows[i].Res
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.2f\t%d\t%d\n",
			jb.id, jb.pname, res.IPC, res.MPKI, res.LLCMisses, res.Bypasses)
	}
	w.Flush()
	for i, jb := range jobs {
		if rowErrs[i] == nil && rows[i].Info != "" {
			fmt.Fprintf(os.Stderr, "\n--- %s on %s ---\n%s", jb.pname, jb.id, rows[i].Info)
		}
	}
	s.Exit(nil)
}
