// Command mpppb-experiments regenerates the paper's tables and figures.
//
// Each experiment writes TSV to stdout (or -out dir/<id>.tsv): the same
// rows/series the paper plots. Under -out a table replaces dir/<id>.tsv
// only when its experiment succeeds; one that fails or is interrupted
// leaves the previous file as it was. Examples:
//
//	mpppb-experiments -id fig6                  # single-thread speedups
//	mpppb-experiments -id fig4 -mixes 100       # 4-core S-curve, 100 test mixes
//	mpppb-experiments -id all -out results/
//
// Scale knobs: -warmup/-measure (instructions per run), -mixes (multi-core
// workload count), -random/-climb (fig3 search budget). The defaults keep
// the full suite tractable on a laptop; raise them for tighter numbers.
//
// Independent runs fan across a worker pool sized by -j (default
// GOMAXPROCS; -j 1 forces the serial path). Results are merged in input
// order, so the TSV output is byte-identical at every -j — parallelism
// only changes wall-clock time.
//
// Every simulation is a cell keyed by what it reads (kind of run,
// machine, policy, workload, seed), and the run's journal serves a key it
// already holds, so experiments that share simulations compute them
// once: fig5 and fig7 re-read fig4's and fig6's cells, fig9 and fig10
// reuse fig4's baselines, fig3's MIN references are fig6's MIN cells, and
// fig3's paper set, table3's full set and figadapt's static seed-0 runs
// are one untimed mpppb run per segment. fig3 scores its random sets as
// one grid. Long sweeps can checkpoint with -journal FILE: every
// completed cell is appended to the file as it finishes, and after an
// interrupt (Ctrl-C or a crash) re-running with -journal FILE -resume
// skips the completed cells and recomputes only the rest, emitting
// byte-identical TSVs. A cell that fails renders as NaN in its table and
// the tool exits 3 after listing the failures.
//
// A running campaign is observable: -listen HOST:PORT serves /metrics
// (Prometheus text), /status (JSON run manifest with per-cell states and
// an ETA) and /debug/pprof for the lifetime of the run, and -progress 10s
// prints a stderr ticker at that interval. Neither changes the TSV
// output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mpppb/internal/core"
	"mpppb/internal/experiments"
	"mpppb/internal/plot"
	"mpppb/internal/runspec"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// fig3Seed is the fixed RNG seed of the fig3 feature search.
const fig3Seed = 2017

type runner struct {
	stCfg, mcCfg sim.Config
	outDir       string
	mixCount     int
	ablateMixes  int
	nRandom      int
	climbSteps   int
	rocSegs      int
	table3Segs   int
	adaptSeeds   int
	// opts carries cancellation, checkpointing, fault handling, duel
	// candidates and progress into every experiment; nil means all
	// defaults.
	opts       *experiments.Run
	plot       bool
	stPolicies []string
	mcPolicies []string
	// stBenches restricts fig6/fig7 and figadapt to a benchmark subset
	// (nil = full suite); used by -benches and the golden-output tests.
	stBenches []string
}

// chart writes an ASCII chart as TSV comment lines.
func chart(w io.Writer, rendered string) {
	for _, line := range strings.Split(strings.TrimRight(rendered, "\n"), "\n") {
		fmt.Fprintf(w, "# %s\n", line)
	}
}

func main() {
	// flags are the experiment-shaping flags, hashed into the journal
	// fingerprint with the common ones.
	var flags struct {
		Mixes      int    `json:"mixes"`
		Ablate     int    `json:"ablate_mixes"`
		Random     int    `json:"random"`
		Climb      int    `json:"climb"`
		ROCSegs    int    `json:"roc_segments"`
		T3Segs     int    `json:"table3_segments"`
		AdaptSeeds int    `json:"adapt_seeds"`
		STPolicies string `json:"st_policies"`
		MCPolicies string `json:"mc_policies"`
		Benches    string `json:"benches"`
	}
	s := runspec.New(flag.CommandLine, "mpppb-experiments", sim.DefaultWarmup, sim.DefaultMeasure,
		runspec.Duel|runspec.Fleet|runspec.Quiet, &flags)
	s.Seed = workload.DefaultMixSeed
	var (
		id     = flag.String("id", "all", "experiment id: fig3..fig10, figadapt, table1, table3, or 'all'")
		out    = flag.String("out", "", "directory for <id>.tsv files (default: stdout)")
		charts = flag.Bool("plot", false, "append ASCII charts as comment lines")
	)
	flag.IntVar(&flags.Mixes, "mixes", 40, "number of 4-core test mixes for fig4/fig5")
	flag.IntVar(&flags.Ablate, "ablate-mixes", 12, "number of mixes for fig9/fig10")
	flag.IntVar(&flags.Random, "random", 40, "random feature sets for fig3")
	flag.IntVar(&flags.Climb, "climb", 60, "hill-climb proposals for fig3")
	flag.IntVar(&flags.ROCSegs, "roc-segments", 33, "segments pooled per predictor for fig8")
	flag.IntVar(&flags.AdaptSeeds, "adapt-seeds", 3, "seeds (distinct reference streams) per segment for figadapt")
	flag.IntVar(&flags.T3Segs, "table3-segments", 33, "segments for table3 leave-one-out")
	flag.StringVar(&flags.STPolicies, "st-policies", "", "override single-thread policy list (comma-separated, each once; lru always runs)")
	flag.StringVar(&flags.MCPolicies, "mc-policies", "", "override multi-core policy list (comma-separated, each once; lru always runs)")
	flag.StringVar(&flags.Benches, "benches", "", "restrict fig6/fig7 and figadapt to these benchmarks (comma-separated)")
	flag.Parse()
	s.Positive("mixes", "ablate-mixes", "random", "roc-segments", "table3-segments", "adapt-seeds")
	s.NonNegative("climb")

	r := &runner{
		stCfg:       s.Config(sim.SingleThreadConfig()),
		mcCfg:       s.Config(sim.MultiCoreConfig()),
		outDir:      *out,
		plot:        *charts,
		mixCount:    flags.Mixes,
		ablateMixes: flags.Ablate,
		nRandom:     flags.Random,
		climbSteps:  flags.Climb,
		rocSegs:     flags.ROCSegs,
		table3Segs:  flags.T3Segs,
		adaptSeeds:  flags.AdaptSeeds,
		stPolicies:  experiments.DefaultSingleThreadPolicies(),
		mcPolicies:  experiments.DefaultMultiCorePolicies(),
	}
	// Every table already has an lru column, so a listed lru would be a
	// second run under the same name.
	policies := func(name, list string) []string {
		pols := s.Policies(name, list)
		if slices.Contains(pols, "lru") {
			s.Exit(fmt.Errorf("-%s: lru is always run; leave it out of the list", name))
		}
		return pols
	}
	if flags.STPolicies != "" {
		r.stPolicies = policies("st-policies", flags.STPolicies)
	}
	if flags.MCPolicies != "" {
		r.mcPolicies = policies("mc-policies", flags.MCPolicies)
	}
	if flags.Benches != "" {
		r.stBenches = strings.Split(flags.Benches, ",")
		for _, b := range r.stBenches {
			if !workload.Lookup(b) {
				s.Exit(fmt.Errorf("-benches: unknown benchmark %q", b))
			}
		}
	}
	all := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "figadapt", "table1", "table3"}
	ids := []string{*id}
	switch {
	case *id == "all":
		ids = all
	case !slices.Contains(append(all, "fig1", "table2"), *id):
		s.Exit(fmt.Errorf("-id: unknown experiment %q", *id))
	}
	r.opts = s.Start()
	for _, one := range ids {
		if err := r.run(one); err != nil {
			s.Exit(err)
		}
	}
	s.Exit(nil)
}

// sink is where an experiment's table goes: stdout, or with -out the
// temporary file <id>.tsv.tmp in that directory, which commit renames
// over <id>.tsv. close, deferred, removes the temporary file unless
// commit ran, so an experiment that fails, panics or is interrupted
// leaves the previous <id>.tsv as it was.
type sink struct {
	io.Writer
	f    *os.File // the temporary file; nil for stdout or once committed
	path string
}

// output opens the sink for an experiment.
func (r *runner) output(id string) (*sink, error) {
	if r.outDir == "" {
		fmt.Printf("# --- %s ---\n", id)
		return &sink{Writer: os.Stdout}, nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(r.outDir, id+".tsv")
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &sink{Writer: f, f: f, path: path}, nil
}

func (s *sink) commit() error {
	f := s.f
	if f == nil {
		return nil
	}
	s.f = nil
	err := f.Close()
	if err == nil {
		err = os.Rename(f.Name(), s.path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

func (s *sink) close() {
	if s.f != nil {
		s.f.Close()
		os.Remove(s.f.Name())
	}
}

func (r *runner) run(id string) error {
	out, err := r.output(id)
	if err != nil {
		return err
	}
	defer out.close()
	if err := r.write(id, out); err != nil {
		return err
	}
	return out.commit()
}

// write runs experiment id and renders its table to w.
func (r *runner) write(id string, w io.Writer) error {
	switch id {
	case "fig3":
		seg := experiments.TrainingSegments(8)
		res, err := experiments.Fig3FeatureSearch(r.stCfg, seg, r.nRandom, r.climbSteps, fig3Seed, r.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Figure 3: feature search. references: LRU=%.3f MIN=%.3f hill-climbed=%.3f paper-set=%.3f (training MPKI, %d evaluations)\n",
			res.LRUMPKI, res.MINMPKI, res.HillClimbed.MPKI, res.PaperSetMPKI, res.Evaluations)
		fmt.Fprintln(w, "rank\trandom_set_mpki")
		for i, m := range res.RandomMPKI {
			fmt.Fprintf(w, "%d\t%.4f\n", i, m)
		}
		fmt.Fprintf(w, "# hill-climbed set:\n")
		for _, f := range res.HillClimbed.Features {
			fmt.Fprintf(w, "# %s\n", f)
		}

	case "fig4", "fig5":
		t, err := r.multiTable()
		if err != nil {
			return err
		}
		if id == "fig4" {
			fmt.Fprintf(w, "# Figure 4: normalized weighted speedup, %d mixes. geomeans:", len(t.Mixes))
			for _, p := range t.Policies {
				fmt.Fprintf(w, " %s=%.4f(below LRU: %d)", p, t.GeomeanSpeedup[p], t.BelowLRU[p])
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "rank\t%s\n", strings.Join(t.Policies, "\t"))
			curves := map[string][]float64{}
			for _, p := range t.Policies {
				curves[p] = t.SpeedupSCurve(p)
			}
			for i := range t.Mixes {
				fmt.Fprintf(w, "%d", i)
				for _, p := range t.Policies {
					fmt.Fprintf(w, "\t%.4f", curves[p][i])
				}
				fmt.Fprintln(w)
			}
			if r.plot {
				var series []plot.Series
				for _, p := range t.Policies {
					series = append(series, plot.Series{Name: p, Y: curves[p]})
				}
				chart(w, plot.Lines("Figure 4: weighted speedup over LRU, mixes sorted", 60, 12, series...))
			}
		} else {
			fmt.Fprintf(w, "# Figure 5: MPKI S-curves, %d mixes. means: lru=%.2f", len(t.Mixes), t.MeanMPKI["lru"])
			for _, p := range t.Policies {
				fmt.Fprintf(w, " %s=%.2f", p, t.MeanMPKI[p])
			}
			fmt.Fprintln(w)
			cols := append([]string{"lru"}, t.Policies...)
			fmt.Fprintf(w, "rank\t%s\n", strings.Join(cols, "\t"))
			curves := map[string][]float64{}
			for _, p := range cols {
				curves[p] = t.MPKISCurve(p)
			}
			for i := range t.Mixes {
				fmt.Fprintf(w, "%d", i)
				for _, p := range cols {
					fmt.Fprintf(w, "\t%.3f", curves[p][i])
				}
				fmt.Fprintln(w)
			}
			if r.plot {
				var series []plot.Series
				for _, p := range cols {
					series = append(series, plot.Series{Name: p, Y: curves[p]})
				}
				chart(w, plot.Lines("Figure 5: MPKI, mixes sorted worst-to-best", 60, 12, series...))
			}
		}

	case "fig6", "fig7":
		t, err := experiments.SingleThread(r.stCfg, r.stPolicies, r.stBenches, r.opts)
		if err != nil {
			return err
		}
		cols := t.AllSingleThreadPolicies()
		if id == "fig6" {
			fmt.Fprintf(w, "# Figure 6: single-thread speedup over LRU. geomeans:")
			for _, p := range cols {
				fmt.Fprintf(w, " %s=%.4f", p, t.GeomeanSpeedup[p])
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "benchmark\t%s\n", strings.Join(cols, "\t"))
			sortBy := "mpppb"
			if _, ok := t.Speedup[sortBy]; !ok {
				sortBy = t.Policies[len(t.Policies)-1]
			}
			order := t.BenchmarksBySpeedup(sortBy)
			for _, b := range order {
				fmt.Fprintf(w, "%s", b)
				for _, p := range cols {
					fmt.Fprintf(w, "\t%.4f", t.Speedup[p][b])
				}
				fmt.Fprintln(w)
			}
			if r.plot {
				vals := make([]float64, len(order))
				for i, b := range order {
					vals[i] = t.Speedup[sortBy][b]
				}
				chart(w, plot.Bars("Figure 6: MPPPB speedup over LRU", 40, order, vals))
			}
		} else {
			fmt.Fprintf(w, "# Figure 7: single-thread MPKI. means:")
			for _, p := range cols {
				fmt.Fprintf(w, " %s=%.3f", p, t.MeanMPKI[p])
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "benchmark\t%s\n", strings.Join(cols, "\t"))
			for _, b := range t.Benchmarks {
				fmt.Fprintf(w, "%s", b)
				for _, p := range cols {
					fmt.Fprintf(w, "\t%.3f", t.MPKI[p][b])
				}
				fmt.Fprintln(w)
			}
		}

	case "fig8", "fig1":
		segs := workload.Segments()[:min(r.rocSegs, len(workload.Segments()))]
		t, err := experiments.ROCCurves(r.stCfg, nil, segs, r.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Figure 8: ROC curves. AUC:")
		for _, p := range t.Predictors {
			fmt.Fprintf(w, " %s=%.4f(TPR@30%%FPR=%.3f)", p, t.AUC[p], t.TPRAt30[p])
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "predictor\tthreshold\tfpr\ttpr")
		for _, p := range t.Predictors {
			for _, pt := range t.Curves[p] {
				fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\n", p, pt.Threshold, pt.FPR, pt.TPR)
			}
		}
		if r.plot {
			var series []plot.Series
			for _, p := range t.Predictors {
				xs := make([]float64, len(t.Curves[p]))
				ys := make([]float64, len(t.Curves[p]))
				for i, pt := range t.Curves[p] {
					xs[i], ys[i] = pt.FPR, pt.TPR
				}
				series = append(series, plot.Series{Name: p, X: xs, Y: ys})
			}
			chart(w, plot.Lines("Figure 8: ROC (FPR vs TPR)", 60, 14, series...))
		}

	case "fig9":
		mixes := experiments.TestingMixes(workload.Mixes(r.ablateMixes*10, workload.DefaultMixSeed))[:r.ablateMixes]
		res, err := experiments.Fig9UniformAssociativity(r.mcCfg, mixes, r.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Figure 9: uniform associativity, %d mixes. original(variable A)=%.4f\n", len(mixes), res.OriginalWS)
		fmt.Fprintln(w, "A\tweighted_speedup")
		for a, ws := range res.UniformWS {
			fmt.Fprintf(w, "%d\t%.4f\n", a+1, ws)
		}
		if r.plot {
			chart(w, plot.Lines("Figure 9: uniform associativity sweep", 54, 10,
				plot.Series{Name: "uniform A", Y: res.UniformWS[:]}))
		}

	case "fig10":
		mixes := experiments.TestingMixes(workload.Mixes(r.ablateMixes*10, workload.DefaultMixSeed))[:r.ablateMixes]
		res, err := experiments.Fig10FeatureAblation(r.mcCfg, nil, mixes, r.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Figure 10: leave-one-feature-out over Table 1(a), %d mixes. original=%.4f\n", len(mixes), res.OriginalWS)
		fmt.Fprintln(w, "feature_omitted\tweighted_speedup")
		labels := make([]string, len(res.Features))
		for i, f := range res.Features {
			fmt.Fprintf(w, "%s\t%.4f\n", f, res.OmittedWS[i])
			labels[i] = f.String()
		}
		if r.plot {
			chart(w, plot.Bars("Figure 10: weighted speedup with feature omitted", 40, labels, res.OmittedWS))
		}

	case "figadapt":
		// Adaptive-vs-static S-curve: every fig6 segment under the
		// offline-tuned default thresholds and the online set-dueling
		// variant, across -adapt-seeds address-placement bases. The mpppb-
		// tune tool is the offline oracle for the same decision: its
		// per-segment winners, fed back in via -duel, are what the online
		// duel approximates without retuning.
		segs := workload.Segments()
		if r.stBenches != nil {
			segs = segs[:0]
			for _, b := range r.stBenches {
				for s := 0; s < workload.SegmentsPerBenchmark; s++ {
					segs = append(segs, workload.SegmentID{Bench: b, Seg: s})
				}
			}
		}
		t, err := experiments.AdaptiveVsStatic(r.stCfg, "mpppb", "mpppb-adaptive", segs, r.adaptSeeds, r.opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# figadapt: %s vs %s MPKI, %d seeds/segment. not-worse: %d/%d segments (ties count)\n",
			t.AdaptivePolicy, t.StaticPolicy, t.Seeds, t.NotWorse, len(t.Rows))
		fmt.Fprintln(w, "rank\tsegment\tstatic_mean\tstatic_min\tstatic_max\tstatic_stddev\tadaptive_mean\tadaptive_min\tadaptive_max\tadaptive_stddev\tratio")
		ratios := make([]float64, len(t.Rows))
		for i, row := range t.Rows {
			fmt.Fprintf(w, "%d\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.6f\n",
				i, row.Segment,
				row.Static.Mean, row.Static.Min, row.Static.Max, row.Static.Stddev,
				row.Adaptive.Mean, row.Adaptive.Min, row.Adaptive.Max, row.Adaptive.Stddev,
				row.Ratio)
			ratios[i] = row.Ratio
		}
		if r.plot {
			chart(w, plot.Lines("figadapt: adaptive/static MPKI ratio, segments sorted", 60, 12,
				plot.Series{Name: "ratio", Y: ratios}))
		}

	case "table1", "table2":
		fmt.Fprintln(w, "# Table 1(a), Table 1(b), Table 2: the paper's feature sets as compiled in.")
		fmt.Fprintln(w, "set\tfeature\tindex_bits")
		for _, set := range []struct {
			name  string
			feats []core.Feature
		}{
			{"1a", core.SingleThreadSetA()},
			{"1b", core.SingleThreadSetB()},
			{"2", core.MultiProgrammedSet()},
		} {
			for _, f := range set.feats {
				fmt.Fprintf(w, "%s\t%s\t%d\n", set.name, f, f.IndexBits())
			}
		}

	case "table3":
		segs := workload.Segments()
		if r.table3Segs < len(segs) {
			segs = segs[:r.table3Segs]
		}
		rows, err := experiments.Table3FeatureBenefit(r.stCfg, nil, segs, r.opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# Table 3: per-feature best segment (leave-one-out, Table 1(b) features)")
		fmt.Fprintln(w, "feature\tsegment\tmpki_with\tmpki_without\tpct_increase")
		for _, row := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\t%.2f%%\n",
				row.Feature, row.Segment, row.MPKIWith, row.MPKIWithout, row.PctIncrease)
		}

	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

func (r *runner) multiTable() (*experiments.MultiCoreTable, error) {
	mixes := experiments.TestingMixes(workload.Mixes(r.mixCount*10/9+1, workload.DefaultMixSeed))
	if len(mixes) > r.mixCount {
		mixes = mixes[:r.mixCount]
	}
	return experiments.MultiCore(r.mcCfg, r.mcPolicies, mixes, r.opts)
}
