// Command mpppb-tune searches MPPPB's threshold and position parameters
// (τ0..τ4, π1..π3) by the paper's Section 5.5 methodology: exhaustive
// sweep of the bypass threshold τ0, then random feasible combinations of
// the remaining parameters, minimizing average MPKI over a training subset
// of the suite.
//
//	mpppb-tune -mode st -segments 12 -combos 200
//	mpppb-tune -mode mp -combos 100
//
// Long tunes checkpoint with -journal FILE: a parameterization's MPKI on
// each training segment persists as it completes, and -resume replays
// them so an interrupted search (the combination sequence is seeded,
// hence repeatable) continues where it stopped.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpppb/internal/core"
	"mpppb/internal/experiments"
	"mpppb/internal/runspec"
	"mpppb/internal/search"
	"mpppb/internal/sim"
	"mpppb/internal/xrand"
)

func main() {
	var flags struct {
		Mode     string `json:"mode"`
		Segments int    `json:"segments"`
	}
	s := runspec.New(flag.CommandLine, "mpppb-tune", 400_000, 1_200_000, 0, &flags)
	flag.StringVar(&flags.Mode, "mode", "st", "st (single-thread/MDPP) or mp (multi-core feature set, SRRIP)")
	flag.IntVar(&flags.Segments, "segments", 12, "training segments")
	flag.Uint64Var(&s.Seed, "seed", 55, "search seed")
	var (
		combos   = flag.Int("combos", 200, "random feasible combinations to try")
		tau0step = flag.Int("tau0-step", 16, "exhaustive tau0 sweep step")
	)
	flag.Parse()
	s.Positive("tau0-step", "segments")
	s.NonNegative("combos")

	params := core.SingleThreadParams()
	switch flags.Mode {
	case "st":
	case "mp":
		params = core.MultiCoreParams()
		params.Cores = 1 // tuned on single-thread MPKI runs, as a fast proxy
	default:
		s.Exit(fmt.Errorf("-mode: unknown mode %q (want st or mp)", flags.Mode))
	}
	training := experiments.TrainingSegments(flags.Segments)
	ev := experiments.NewEvaluator(s.Config(sim.SingleThreadConfig()), training, s.Start())
	// score is the Evaluator over parameter sets: each call is one grid.
	score := func(ps []core.Params) ([]float64, error) {
		policies := make([]experiments.Policy, len(ps))
		for i, p := range ps {
			policies[i] = experiments.WithParams(p)
		}
		return ev.MPKI(policies...)
	}
	fmt.Fprintf(os.Stderr, "training on %d segments\n", len(training))

	mpkis, err := score([]core.Params{params})
	if err != nil {
		s.Exit(err)
	}
	base := mpkis[0]
	fmt.Fprintf(os.Stderr, "baseline %.4f MPKI (tau0=%d tau=%d,%d,%d,%d pi=%v)\n",
		base, params.Tau0, params.Tau1, params.Tau2, params.Tau3, params.Tau4, params.Pi)

	tau0, m, err := search.SearchTau0(score, params, 0, core.ConfMax, *tau0step, func(t int, m float64) {
		fmt.Fprintf(os.Stderr, "tau0=%-4d %.4f\n", t, m)
	})
	if err != nil {
		s.Exit(err)
	}
	params.Tau0 = tau0
	fmt.Fprintf(os.Stderr, "best tau0=%d (%.4f MPKI)\n", tau0, m)

	rng := xrand.New(s.Seed)
	best, bestMPKI, err := search.SearchThresholds(score, rng, params, *combos, func(i int, b float64) {
		if (i+1)%20 == 0 {
			fmt.Fprintf(os.Stderr, "combo %d/%d best %.4f\n", i+1, *combos, b)
		}
	})
	if err != nil {
		s.Exit(err)
	}

	fmt.Printf("mode=%s evaluations=%d\n", flags.Mode, ev.Evals)
	fmt.Printf("baseline MPKI %.4f -> tuned %.4f\n", base, bestMPKI)
	fmt.Printf("Tau0: %d\nTau1: %d\nTau2: %d\nTau3: %d\nTau4: %d\nPi:   %v\n",
		best.Tau0, best.Tau1, best.Tau2, best.Tau3, best.Tau4, best.Pi)
	// The compact spec feeds straight back into the online duel:
	// collect several tunes' specs ';'-separated into -duel on
	// mpppb-sim or mpppb-experiments, and mpppb-adaptive duels them
	// at runtime instead of trusting any single offline winner.
	fmt.Printf("duel: %s\n", best.Thresholds())
	s.Exit(nil)
}
