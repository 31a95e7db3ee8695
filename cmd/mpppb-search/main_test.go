package main

// Pins the tool's stdout and exit codes: run with -update to regenerate
// testdata/ after an intended output change.

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

var search = []string{"-random", "3", "-climb", "2", "-training", "2", "-q",
	"-warmup", "50000", "-measure", "200000"}

func TestGolden(t *testing.T) {
	clitest.Check(t, "", clitest.Case{Golden: "search.golden", Args: search})
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, "random", "-random", "0")
	// 0 means no climb; a negative budget would run as 0 silently.
	clitest.Refused(t, "climb", "-random", "1", "-climb", "-5", "-training", "1")
	// A non-positive count would otherwise train on the whole suite.
	clitest.Refused(t, "training", "-training", "0")
	clitest.Refused(t, "training", "-training", "-1")
}

func TestResume(t *testing.T) {
	clitest.Resume(t, "", clitest.Journaled{Golden: "search.golden", Args: search,
		Hashed: [][]string{{"-random", "4"}, {"-climb", "3"}, {"-training", "3"}, {"-seed", "7"}},
		Free:   [][]string{{"-q=false"}}})
}

// TestFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "check climb cpuprofile j journal listen measure memprofile progress q random resume seed training warmup")
}
