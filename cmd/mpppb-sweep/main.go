// Command mpppb-sweep explores sensitivity beyond the paper's figures:
// LLC capacity sweeps and DRAM-latency sweeps per policy, printed as TSV.
// Useful for checking that the reproduction's policy orderings are not an
// artifact of one cache size.
//
//	mpppb-sweep -bench sphinx3_like -policy lru,mpppb,min
//	mpppb-sweep -bench gcc_like -dim mem -policy lru,mpppb
//
// Sweeps checkpoint with -journal FILE; -resume skips the grid cells
// already on disk. Failed cells print NA and the sweep exits 3. The grid
// splits across a fleet like mpppb-experiments' (-coordinator, -worker).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"

	"mpppb/internal/experiments"
	"mpppb/internal/runspec"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

func main() {
	s := runspec.New(flag.CommandLine, "mpppb-sweep", sim.DefaultWarmup, sim.DefaultMeasure, runspec.Fleet, nil)
	var (
		bench    = flag.String("bench", "sphinx3_like", "benchmark")
		seg      = flag.Int("seg", 1, "segment")
		policies = flag.String("policy", "lru,mpppb,min", "comma-separated policies")
		dim      = flag.String("dim", "llc", "sweep dimension: llc (capacity) or mem (DRAM latency)")
	)
	flag.Parse()

	ids := s.Segments(*bench, *seg)
	if len(ids) != 1 {
		s.Exit(errors.New("-bench/-seg: a sweep runs one segment"))
	}
	id := ids[0]
	pols := s.Policies("policy", *policies, "min")
	type point struct {
		label string
		cfg   sim.Config
	}
	var points []point
	base := s.Config(sim.SingleThreadConfig())
	switch *dim {
	case "llc":
		for _, mb := range []int{1, 2, 4, 8} {
			cfg := base
			cfg.LLCSize = mb << 20
			points = append(points, point{fmt.Sprintf("%dMB", mb), cfg})
		}
	case "mem":
		for _, lat := range []int{120, 240, 480} {
			cfg := base
			cfg.Lat.Mem = lat
			points = append(points, point{fmt.Sprintf("%dcyc", lat), cfg})
		}
	default:
		s.Exit(fmt.Errorf("-dim: unknown dimension %q (want llc or mem)", *dim))
	}
	run := s.Start()

	// The (point, policy) grid is independent runs; fan it across the
	// pool (or the fleet) and print in grid order.
	var keys []string
	for _, pt := range points {
		for _, p := range pols {
			keys = append(keys, "sweep/"+id.String()+"/"+*dim+"/"+pt.label+"/"+p)
		}
	}
	results, cellErrs, err := experiments.RunCells(run, keys, func(_ context.Context, i int) (sim.Result, error) {
		return sim.RunNamed(points[i/len(pols)].cfg, workload.NewGenerator(id, workload.CoreBase(0)), pols[i%len(pols)], nil)
	})
	if err != nil {
		s.Exit(err)
	}
	fmt.Printf("# sweep %s over %s, segment %s\n", *dim, strings.Join(pols, ","), id)
	fmt.Printf("point")
	for _, p := range pols {
		fmt.Printf("\t%s_ipc\t%s_mpki", p, p)
	}
	fmt.Println()
	for pi, pt := range points {
		fmt.Printf("%s", pt.label)
		for qi := range pols {
			if i := pi*len(pols) + qi; cellErrs[i] != nil {
				fmt.Printf("\tNA\tNA")
			} else {
				fmt.Printf("\t%.3f\t%.2f", results[i].IPC, results[i].MPKI)
			}
		}
		fmt.Println()
	}
	s.Exit(nil)
}
