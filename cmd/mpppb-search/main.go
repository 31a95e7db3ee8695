// Command mpppb-search runs the paper's feature-development methodology
// (Section 5): evaluate a population of random 16-feature sets with the
// fast MPKI-only simulator on a training subset of the suite, then refine
// the best set by hill climbing. It prints the Figure 3-style summary and
// the resulting feature set in the paper's notation.
//
//	mpppb-search -random 100 -climb 200 -training 12
//	mpppb-search -random 40 -seed 7 -measure 2000000
//
// Long searches checkpoint with -journal FILE: a feature set's MPKI on
// each training segment is persisted as it completes, and -resume replays
// them so an interrupted search (the proposal sequence is seeded, hence
// repeatable) continues where it stopped.
package main

import (
	"flag"
	"fmt"

	"mpppb/internal/experiments"
	"mpppb/internal/runspec"
	"mpppb/internal/sim"
)

func main() {
	var flags struct {
		Random   int `json:"random"`
		Climb    int `json:"climb"`
		Training int `json:"training"`
	}
	s := runspec.New(flag.CommandLine, "mpppb-search", 300_000, 1_000_000, runspec.Quiet, &flags)
	flag.IntVar(&flags.Random, "random", 40, "random feature sets to evaluate (paper: 4000)")
	flag.IntVar(&flags.Climb, "climb", 80, "hill-climb proposals")
	flag.IntVar(&flags.Training, "training", 8, "training segments drawn across the suite")
	flag.Uint64Var(&s.Seed, "seed", 2017, "search seed")
	flag.Parse()
	s.Positive("random", "training")

	cfg := s.Config(sim.SingleThreadConfig())
	res, err := experiments.Fig3FeatureSearch(cfg, experiments.TrainingSegments(flags.Training),
		flags.Random, flags.Climb, s.Seed, s.Start())
	if err != nil {
		s.Exit(err)
	}

	fmt.Printf("random sets evaluated: %d (training MPKI %.3f worst .. %.3f best)\n",
		len(res.RandomMPKI), res.RandomMPKI[0], res.RandomMPKI[len(res.RandomMPKI)-1])
	fmt.Printf("hill-climbed:          %.3f MPKI\n", res.HillClimbed.MPKI)
	fmt.Printf("paper set 1(b):        %.3f MPKI\n", res.PaperSetMPKI)
	fmt.Printf("LRU reference:         %.3f MPKI\n", res.LRUMPKI)
	fmt.Printf("MIN reference:         %.3f MPKI\n", res.MINMPKI)
	fmt.Printf("fast-simulator runs:   %d\n", res.Evaluations)
	fmt.Println("\nbest feature set found:")
	for _, f := range res.HillClimbed.Features {
		fmt.Printf("  %s\n", f)
	}
	s.Exit(nil)
}
