package main

// Pins the tool's stdout and exit codes: run with -update to regenerate
// testdata/ after an intended output change.

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// run is one small segment under static, adaptive and optimal policies.
var run = []string{"-bench", "gcc_like", "-seg", "1", "-policy", "lru,mpppb,mpppb-adaptive,min",
	"-warmup", "100000", "-measure", "400000"}

// duel is two valid threshold sets: the shipped defaults and a tune result.
const duel = "0,-9,-38,-117,42,15,6,0,0;0,-1,-3,-87,-6,15,2,1,0"

func TestGolden(t *testing.T) {
	clitest.Check(t, "",
		clitest.Case{Golden: "list.golden", Args: []string{"-list"}},
		clitest.Case{Golden: "run.golden", Args: run},
		clitest.Case{Golden: "duel.golden", Args: append(run, "-duel", duel)},
	)
}

func TestResume(t *testing.T) {
	clitest.Resume(t, "", clitest.Journaled{Golden: "run.golden", Args: run,
		Hashed: [][]string{{"-v"}, {"-duel", duel}}})
}

// TestVerbose: -v reports on the policies it can describe (mpppb and
// mpppb-srrip, on stderr) and leaves every other cell of the grid as is.
func TestVerbose(t *testing.T) {
	clitest.Check(t, "", clitest.Case{Golden: "run.golden", Args: append(run, "-v")})
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, "seg", "-seg", "5")
	clitest.Refused(t, "seg", "-seg", "-2")
	clitest.Refused(t, "bench", "-bench", "nosuch_like")
	clitest.Refused(t, "policy", "-policy", "lru,bogus")
	clitest.Refused(t, "policy", "-policy", "lru,mpppb,lru")
	// Parses, but τ1 < τ2 < τ3 breaks the descending-threshold invariant.
	clitest.Refused(t, "duel", "-policy", "mpppb-adaptive", "-duel", "48,-98,-68,-38,122,15,13,11,13;"+duel)
	clitest.Refused(t, "duel", "-duel", "1,2,3")
	// Position 15 is valid under MDPP but outside SRRIP's RRPV range.
	clitest.Refused(t, "policy", "-policy", "mpppb-adaptive-srrip", "-duel", duel)
	clitest.Refused(t, "resume", "-resume")
	clitest.Refused(t, "measure", "-measure", "0")
}

// TestFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "bench check cpuprofile duel j journal list listen measure memprofile policy progress resume seg v warmup")
}
