// Package runspec is the run specification the seven batch tools share
// (mpppb-experiments, -sim, -sweep, -roc, -trace, -search and -tune):
// their common flags, declared once; the journal fingerprint, derived
// from the spec value; the run lifecycle — profiling, journal, live
// status, fleet roles, the interrupt context and teardown; and the exit
// codes:
//
//	0    success
//	1    bad input or a run error, reported before any cell runs where possible
//	3    some cells failed; their table entries render as NaN or NA
//	130  interrupted; a -journal run resumes with -resume
//
// A tool wires it up as:
//
//	s := runspec.New(flag.CommandLine, "mpppb-x", warmup, measure, runspec.Quiet, &toolFlags)
//	flag.Parse()
//	run := s.Start()
//	vals, errs, err := experiments.RunCells(run, keys, compute)
//	if err != nil {
//		s.Exit(err)
//	}
//	... render vals, with NA where errs[i] != nil ...
//	s.Exit(nil)
package runspec

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"mpppb/internal/core"
	"mpppb/internal/experiments"
	"mpppb/internal/fleet"
	"mpppb/internal/journal"
	"mpppb/internal/obs"
	"mpppb/internal/prof"
	"mpppb/internal/sim"
	"mpppb/internal/workload"
)

// Option selects the flag groups only some tools take.
type Option uint

const (
	// Duel registers -duel.
	Duel Option = 1 << iota
	// Fleet registers -coordinator, -worker and -lease-ttl.
	Fleet
	// Quiet registers -q; without -q, cell progress goes to stderr.
	Quiet
)

// Output is everything that shapes cell values. It is hashed whole into
// the journal fingerprint, so a -resume under different settings is
// refused.
type Output struct {
	Tool    string `json:"tool"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	Duel    string `json:"duel,omitempty"`
	Seed    uint64 `json:"seed"`
	// Flags points at a JSON-tagged struct the tool binds its own
	// output-shaping flags into (and any input digest, such as a trace
	// file's content hash).
	Flags any `json:"flags,omitempty"`
}

// Spec is one batch run. Output is hashed into the fingerprint; the
// deployment fields below it are not, because they change where and how
// fast cells are computed, never their values — and a fleet worker must
// match its coordinator's fingerprint whatever its -j. Flags a tool keeps
// outside Output either only pick which cells run, and so appear in the
// cell keys, or only render.
type Spec struct {
	Output

	Workers     int
	Check       bool
	Quiet       bool
	Journal     journal.Flags
	Obs         *obs.Flags
	Coordinator bool
	Worker      string
	LeaseTTL    time.Duration
	CPUProfile  string
	MemProfile  string

	fs       *flag.FlagSet
	with     Option
	cands    []core.ThresholdSet
	run      *experiments.Run
	teardown []func()
}

// New registers the common flags on fs, with the tool's own -warmup and
// -measure defaults and the optional groups in with, and binds the
// fingerprint to flags (a pointer to the tool's JSON-tagged struct of
// output-shaping flags, or nil).
func New(fs *flag.FlagSet, tool string, warmup, measure uint64, with Option, flags any) *Spec {
	s := &Spec{Output: Output{Tool: tool, Flags: flags}, fs: fs, with: with}
	fs.IntVar(&s.Workers, "j", runtime.GOMAXPROCS(0), "worker goroutines for independent runs (1 = serial; output is identical at any -j)")
	fs.Uint64Var(&s.Warmup, "warmup", warmup, "warmup instructions per run")
	fs.Uint64Var(&s.Measure, "measure", measure, "measured instructions per run")
	fs.BoolVar(&s.Check, "check", false, "run the lockstep verification layer on every cache (slow; a divergence aborts with the access index and set dump)")
	fs.StringVar(&s.Journal.Path, "journal", "", "append-only JSONL checkpoint file; each completed cell is persisted as it finishes")
	fs.BoolVar(&s.Journal.Resume, "resume", false, "resume the -journal file, skipping cells it already holds (refuses a journal from a different config/binary/seed)")
	s.Obs = obs.RegisterFlags(fs)
	fs.StringVar(&s.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&s.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	if with&Duel != 0 {
		fs.StringVar(&s.Duel, "duel", "", "override mpppb-adaptive duel candidates: ';'-separated threshold specs (the 'duel:' line mpppb-tune prints)")
	}
	if with&Fleet != 0 {
		fs.BoolVar(&s.Coordinator, "coordinator", false, "run as fleet coordinator: serve the work-lease API on -listen and let -worker processes compute the cells")
		fs.StringVar(&s.Worker, "worker", "", "run as fleet worker: lease cells from the coordinator at this URL instead of computing the grid locally")
		fs.DurationVar(&s.LeaseTTL, "lease-ttl", fleet.DefaultTTL, "coordinator lease heartbeat deadline; an unrenewed cell is reassigned after this long")
	}
	if with&Quiet != 0 {
		fs.BoolVar(&s.Quiet, "q", false, "suppress progress output")
	}
	return s
}

// Fingerprint identifies the run for the journal and the fleet: a hash
// of Output, the build version and the seed.
func (s *Spec) Fingerprint() journal.Fingerprint {
	return journal.Fingerprint{
		Config:  journal.ConfigHash(s.Output),
		Version: journal.BuildVersion(),
		Seed:    int64(s.Seed),
	}
}

// Config returns base with the spec's -warmup, -measure and -check.
func (s *Spec) Config(base sim.Config) sim.Config {
	base.Warmup, base.Measure, base.Check = s.Warmup, s.Measure, s.Check
	return base
}

// Segments resolves -bench (a benchmark, or "all" for the suite) and
// -seg (an index, or -1 for every segment). A bad value exits 1.
func (s *Spec) Segments(bench string, seg int) []workload.SegmentID {
	benches := []string{bench}
	if bench == "all" {
		benches = workload.Benchmarks()
	} else if !workload.Lookup(bench) {
		s.Exit(fmt.Errorf("-bench: unknown benchmark %q (mpppb-sim -list lists them)", bench))
	}
	if seg < -1 || seg >= workload.SegmentsPerBenchmark {
		s.Exit(fmt.Errorf("-seg: %d is not a segment index 0..%d (or -1 for all)", seg, workload.SegmentsPerBenchmark-1))
	}
	var ids []workload.SegmentID
	for _, b := range benches {
		for i := 0; i < workload.SegmentsPerBenchmark; i++ {
			if seg < 0 || i == seg {
				ids = append(ids, workload.SegmentID{Bench: b, Seg: i})
			}
		}
	}
	return ids
}

// Positive checks that each named integer flag is at least 1: a count or
// budget of zero would otherwise panic, hang or print an empty table. A
// bad value exits 1.
func (s *Spec) Positive(names ...string) { s.atLeast(1, names) }

// NonNegative checks that each named integer flag is at least 0: a
// negative budget would otherwise run as 0 silently. A bad value exits 1.
func (s *Spec) NonNegative(names ...string) { s.atLeast(0, names) }

func (s *Spec) atLeast(least int64, names []string) {
	for _, name := range names {
		if v, err := strconv.ParseInt(s.fs.Lookup(name).Value.String(), 10, 64); err == nil && v < least {
			s.Exit(fmt.Errorf("-%s: %d; want at least %d", name, v, least))
		}
	}
}

// Policies splits the comma-separated list given to flag name and checks
// that every entry names a policy (with the -duel candidates applied) or
// one of the extra names the tool handles itself, once: tables key their
// rows and columns by name, so a repeat would merge two runs into one. A
// bad or repeated name exits 1.
func (s *Spec) Policies(name, list string, extra ...string) []string {
	cands, err := s.duel()
	if err != nil {
		s.Exit(err)
	}
	var out []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if !slices.Contains(extra, p) {
			if _, err := sim.PolicyWith(p, cands); err != nil {
				s.Exit(fmt.Errorf("-%s: %v", name, err))
			}
		}
		if slices.Contains(out, p) {
			s.Exit(fmt.Errorf("-%s: policy %q is listed twice", name, p))
		}
		out = append(out, p)
	}
	return out
}

// duel parses and checks -duel once.
func (s *Spec) duel() ([]core.ThresholdSet, error) {
	if s.Duel == "" || s.cands != nil {
		return s.cands, nil
	}
	cands, err := core.ParseDuelCandidates(s.Duel)
	if err == nil {
		_, err = sim.PolicyWith("mpppb-adaptive", cands)
	}
	if err != nil {
		return nil, fmt.Errorf("-duel: %v", err)
	}
	s.cands = cands
	return cands, nil
}

// Start validates the spec and starts the run it describes: profiling,
// the journal, the run status and its -listen server (with the
// work-lease API under -coordinator), the fleet worker under -worker,
// and the SIGINT context. The returned Run carries all of it, plus the
// -j width and the -duel candidates, into experiments.RunCells and the
// drivers. A failure exits 1.
func (s *Spec) Start() *experiments.Run {
	if err := s.start(); err != nil {
		s.Exit(err)
	}
	return s.run
}

func (s *Spec) start() error {
	cands, err := s.duel()
	switch {
	case err != nil:
		return err
	case s.Measure == 0:
		return errors.New("-measure: 0 instructions; want at least 1")
	case s.Coordinator && s.Worker != "":
		return errors.New("-coordinator and -worker are mutually exclusive")
	case s.Coordinator && s.Obs.Listen == "":
		return errors.New("-coordinator needs -listen to serve the work-lease API")
	case s.Worker != "" && s.Journal.Path != "":
		return errors.New("-worker does not journal locally (the coordinator owns the journal); drop -journal")
	case s.Coordinator && s.LeaseTTL < fleet.MinTTL:
		return fmt.Errorf("-lease-ttl: %v; want at least %v", s.LeaseTTL, fleet.MinTTL)
	}
	s.teardown = append(s.teardown, prof.Start(s.CPUProfile, s.MemProfile))
	fp := s.Fingerprint()
	jrnl, err := s.Journal.Open(fp)
	if err != nil {
		return err
	}
	if s.Worker != "" {
		// A worker keeps no cells: it computes only what it leases, and
		// the coordinator's journal serves the rest.
		jrnl = nil
	}
	s.teardown = append(s.teardown, func() { jrnl.Close() })
	status := obs.NewRunStatus(s.Tool)
	status.SetMeta(fp.Config, s.Journal.Path)
	// KeepGoing: a failed cell renders NaN or NA and the tool exits 3
	// after listing the failures.
	run := &experiments.Run{Journal: jrnl, Workers: s.Workers, Duel: cands, KeepGoing: true, Status: status}
	var routes []obs.Route
	if s.Coordinator {
		run.Fleet = fleet.NewBoard(fleet.BoardConfig{Fingerprint: fp, Journal: jrnl, Status: status, TTL: s.LeaseTTL})
		s.teardown = append(s.teardown, run.Fleet.Close)
		routes = fleet.Routes(run.Fleet)
	}
	stop, err := s.Obs.Start(status, routes...)
	if err != nil {
		return err
	}
	s.teardown = append(s.teardown, stop)
	if s.Worker != "" {
		if run.FleetWorker, err = fleet.NewWorker(fleet.WorkerConfig{URL: s.Worker, Fingerprint: fp, Workers: s.Workers}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: fleet worker %s leasing from %s\n", s.Tool, run.FleetWorker.ID(), s.Worker)
	}
	if s.with&Quiet != 0 && !s.Quiet {
		run.Progress = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	var cancel func()
	run.Ctx, cancel = signal.NotifyContext(context.Background(), os.Interrupt)
	s.teardown = append(s.teardown, cancel)
	s.run = run
	return nil
}

// Exit ends the run with the exit code err and the failed cells map to,
// saying why on stderr, and tears down everything Start began. Tools
// call it with a run error, with a bad-input error, or with nil when
// done; it does not return.
func (s *Spec) Exit(err error) {
	code := s.outcome(err)
	for i := len(s.teardown) - 1; i >= 0; i-- {
		s.teardown[i]()
	}
	os.Exit(code)
}

// outcome reports err, or the run's failed cells, on stderr and returns
// the exit code they map to.
func (s *Spec) outcome(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "%s: interrupted", s.Tool)
		if s.Journal.Path != "" {
			fmt.Fprintf(os.Stderr, "; completed cells are saved — re-run with -journal %s -resume to continue\n", s.Journal.Path)
		} else {
			fmt.Fprintln(os.Stderr, " (hint: -journal FILE makes runs resumable)")
		}
		return 130
	case err != nil:
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, err)
		return 1
	case s.run == nil:
		return 0
	}
	if s.run.Fleet != nil {
		// Linger until live workers have fetched the final grid (so they
		// can render the same tables) rather than vanish mid-poll.
		s.run.Fleet.SettleWorkers(s.run.Ctx, 2*s.LeaseTTL)
	}
	failures := s.run.Failures()
	if len(failures) == 0 {
		return 0
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].Key < failures[j].Key })
	fmt.Fprintf(os.Stderr, "%s: %d cell(s) failed permanently; their entries are NaN or NA:\n", s.Tool, len(failures))
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "  FAILED %s: %v\n", f.Key, f.Err)
	}
	return 3
}
