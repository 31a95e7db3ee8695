package main

// Pins the tool's stdout and exit codes: run with -update to regenerate
// testdata/ after an intended output change.

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

var summary = []string{"-bench", "gcc_like", "-seg", "1", "-predictor", "sdbp,perceptron,mpppb", "-summary",
	"-warmup", "100000", "-measure", "400000"}

func TestGolden(t *testing.T) {
	clitest.Check(t, "",
		clitest.Case{Golden: "summary.golden", Args: summary},
		clitest.Case{Golden: "curve.golden", Args: []string{"-bench", "mcf_like", "-seg", "0", "-predictor", "mpppb",
			"-warmup", "50000", "-measure", "200000"}},
	)
}

func TestResume(t *testing.T) {
	clitest.Resume(t, "", clitest.Journaled{Golden: "summary.golden", Args: summary})
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, "predictor", "-predictor", "mpppb,lru")
	clitest.Refused(t, "seg", "-seg", "3")
}

// TestFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "bench check cpuprofile j journal listen measure memprofile predictor progress resume seg summary warmup")
}
