package main

// Pins the tool's stdout and exit codes: run with -update to regenerate
// testdata/ after an intended output change.

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

var mem = []string{"-bench", "gcc_like", "-seg", "1", "-dim", "mem", "-policy", "lru,mpppb",
	"-warmup", "100000", "-measure", "400000"}

func TestGolden(t *testing.T) {
	clitest.Check(t, "",
		clitest.Case{Golden: "mem.golden", Args: mem},
		clitest.Case{Golden: "llc.golden", Args: []string{"-bench", "gcc_like", "-seg", "1", "-policy", "lru,min",
			"-warmup", "100000", "-measure", "400000"}},
	)
}

func TestResume(t *testing.T) {
	clitest.Resume(t, "", clitest.Journaled{Golden: "mem.golden", Args: mem,
		Free: [][]string{{"-coordinator", "-listen", "127.0.0.1:0", "-lease-ttl", "1s"}}})
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, "seg", "-seg", "5")
	clitest.Refused(t, "bench", "-bench", "all")
	clitest.Refused(t, "dim", "-dim", "cpu")
	clitest.Refused(t, "policy", "-policy", "lru,bogus")
	clitest.Refused(t, "coordinator", "-coordinator")
	clitest.Refused(t, "coordinator", "-coordinator", "-worker", "127.0.0.1:1")
	clitest.Refused(t, "worker", "-worker", "127.0.0.1:1", "-journal", "x")
	clitest.Refused(t, "lease-ttl", "-coordinator", "-listen", "127.0.0.1:0", "-lease-ttl", "3ns")
	clitest.Refused(t, "lease-ttl", "-coordinator", "-listen", "127.0.0.1:0", "-lease-ttl", "-5s")
}

// TestFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "bench check coordinator cpuprofile dim j journal lease-ttl listen measure memprofile policy progress resume seg warmup worker")
}
