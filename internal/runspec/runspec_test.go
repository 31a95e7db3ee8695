package runspec

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"testing"

	"mpppb/internal/experiments"
)

// parse builds a spec the way a tool does — common flags plus two
// output-shaping tool flags and a -seed — and parses args into it.
func parse(t *testing.T, args ...string) *Spec {
	t.Helper()
	var flags struct {
		N int    `json:"n"`
		S string `json:"s"`
	}
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	s := New(fs, "tool", 10, 20, Duel|Fleet|Quiet, &flags)
	fs.IntVar(&flags.N, "n", 0, "")
	fs.StringVar(&flags.S, "s", "", "")
	fs.Uint64Var(&s.Seed, "seed", 0, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

func fingerprint(s *Spec) string {
	fp := s.Fingerprint()
	return fmt.Sprintf("%s/%s/%d", fp.Config, fp.Version, fp.Seed)
}

// TestFingerprintCoversOutputOnly: every output-shaping input — the
// common ones and the tool's bound flags — changes the journal
// fingerprint; no deployment flag does, since a fleet worker must match
// its coordinator's fingerprint whatever its -j, role or journal.
func TestFingerprintCoversOutputOnly(t *testing.T) {
	base := fingerprint(parse(t))
	for _, args := range [][]string{
		{"-warmup", "11"}, {"-measure", "21"}, {"-seed", "1"},
		{"-duel", "0,-9,-38,-117,42,15,6,0,0;0,-1,-3,-87,-6,15,2,1,0"},
		{"-n", "1"}, {"-s", "a"},
	} {
		if fingerprint(parse(t, args...)) == base {
			t.Errorf("%v does not change the fingerprint", args)
		}
	}
	other := parse(t)
	other.Tool = "other-tool"
	if fingerprint(other) == base {
		t.Error("the tool name does not change the fingerprint")
	}
	for _, args := range [][]string{
		{"-j", "3"}, {"-check"}, {"-q"}, {"-journal", "run.journal"}, {"-resume"},
		{"-listen", "127.0.0.1:0"}, {"-progress", "5s"},
		{"-coordinator"}, {"-worker", "http://127.0.0.1:1"}, {"-lease-ttl", "1m"},
		{"-cpuprofile", "cpu.pprof"}, {"-memprofile", "mem.pprof"},
	} {
		if fingerprint(parse(t, args...)) != base {
			t.Errorf("%v changes the fingerprint", args)
		}
	}
}

// TestOutcomeExitCodes pins the one mapping from a run's outcome to the
// tools' exit codes.
func TestOutcomeExitCodes(t *testing.T) {
	s := parse(t)
	for _, c := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("bad input"), 1},
		{fmt.Errorf("cell grid: %w", context.Canceled), 130},
	} {
		if got := s.outcome(c.err); got != c.want {
			t.Errorf("outcome(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	s.run = &experiments.Run{KeepGoing: true}
	if got := s.outcome(nil); got != 0 {
		t.Errorf("clean run: outcome = %d, want 0", got)
	}
	_, _, err := experiments.RunCells(s.run, []string{"ok", "bad"}, func(_ context.Context, i int) (int, error) {
		if i == 1 {
			return 0, errors.New("cell failed")
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.outcome(nil); got != 3 {
		t.Errorf("run with a failed cell: outcome = %d, want 3", got)
	}
}

func TestSegments(t *testing.T) {
	s := parse(t)
	if got := len(s.Segments("all", -1)); got != 99 {
		t.Errorf("all segments: %d, want 99", got)
	}
	if got := s.Segments("gcc_like", 2); len(got) != 1 || got[0].String() != "gcc_like-2" {
		t.Errorf("one segment: %v", got)
	}
	if got := s.Segments("gcc_like", -1); len(got) != 3 {
		t.Errorf("one benchmark: %v", got)
	}
}

func TestPolicies(t *testing.T) {
	s := parse(t, "-duel", "0,-9,-38,-117,42,15,6,0,0;0,-1,-3,-87,-6,15,2,1,0")
	got := s.Policies("policy", "lru, mpppb-adaptive ,min", "min")
	if fmt.Sprint(got) != "[lru mpppb-adaptive min]" {
		t.Errorf("Policies = %v", got)
	}
}
