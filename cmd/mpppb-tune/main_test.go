package main

// Pins the tool's stdout (including the "duel:" line mpppb-sim and
// mpppb-experiments accept) and exit codes: run with -update to
// regenerate testdata/ after an intended output change.

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

var tune = []string{"-segments", "2", "-combos", "3", "-tau0-step", "128",
	"-warmup", "50000", "-measure", "200000"}

func TestGolden(t *testing.T) {
	clitest.Check(t, "",
		clitest.Case{Golden: "st.golden", Args: tune},
		clitest.Case{Golden: "mp.golden", Args: append([]string{"-mode", "mp"}, tune...)},
	)
}

func TestResume(t *testing.T) {
	clitest.Resume(t, "", clitest.Journaled{Golden: "st.golden", Args: tune,
		Hashed: [][]string{{"-mode", "mp"}, {"-segments", "3"}, {"-seed", "7"}}})
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, "mode", "-mode", "mc")
	clitest.Refused(t, "tau0-step", "-tau0-step", "0")
	// 0 means no combinations; a negative budget would run as 0 silently.
	clitest.Refused(t, "combos", "-segments", "1", "-combos", "-3")
	// A non-positive count would otherwise train on the whole suite.
	clitest.Refused(t, "segments", "-segments", "0")
	clitest.Refused(t, "segments", "-segments", "-3")
}

// TestFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "check combos cpuprofile j journal listen measure memprofile mode progress resume seed segments tau0-step warmup")
}
