// Command mpppb-roc extracts receiver-operating-characteristic curves for
// the reuse predictors with comparable confidences (sdbp, perceptron,
// mpppb), using the measurement-only mode of Section 6.3: predictions are
// recorded but never applied, with the LLC under plain LRU.
//
//	mpppb-roc -bench gcc_like -seg 1 -predictor mpppb
//	mpppb-roc -bench all -predictor sdbp,perceptron,mpppb -summary
//
// Suite-wide extractions can checkpoint with -journal FILE; -resume
// replays the per-segment sample sets already on disk. A failed segment
// is left out of its pooled curve and the tool exits 3.
package main

import (
	"flag"
	"fmt"
	"strings"

	"mpppb/internal/experiments"
	"mpppb/internal/runspec"
	"mpppb/internal/sim"
	"mpppb/internal/stats"
)

func main() {
	s := runspec.New(flag.CommandLine, "mpppb-roc", sim.DefaultWarmup, sim.DefaultMeasure, 0, nil)
	var (
		bench      = flag.String("bench", "gcc_like", "benchmark, or 'all'")
		seg        = flag.Int("seg", -1, "segment (0-2), or -1 for all")
		predictors = flag.String("predictor", "sdbp,perceptron,mpppb", "comma-separated predictors")
		summary    = flag.Bool("summary", false, "print only AUC and band TPRs")
	)
	flag.Parse()

	ids := s.Segments(*bench, *seg)
	preds := strings.Split(*predictors, ",")
	for i, pred := range preds {
		preds[i] = strings.TrimSpace(pred)
		if _, err := sim.Confidence(preds[i]); err != nil {
			s.Exit(fmt.Errorf("-predictor: %v", err))
		}
	}
	// Segments fan across the pool; samples pool in segment order, so
	// the curves match a serial run exactly.
	t, err := experiments.ROCCurves(s.Config(sim.SingleThreadConfig()), preds, ids, s.Start())
	if err != nil {
		s.Exit(err)
	}
	for _, pred := range preds {
		curve := t.Curves[pred]
		fmt.Printf("# %s: %d samples, AUC=%.4f TPR@25%%=%.3f TPR@30%%=%.3f\n",
			pred, t.Samples[pred], t.AUC[pred], stats.TPRAtFPR(curve, 0.25), t.TPRAt30[pred])
		if *summary {
			continue
		}
		fmt.Println("threshold\tfpr\ttpr")
		for _, p := range curve {
			fmt.Printf("%d\t%.4f\t%.4f\n", p.Threshold, p.FPR, p.TPR)
		}
	}
	s.Exit(nil)
}
