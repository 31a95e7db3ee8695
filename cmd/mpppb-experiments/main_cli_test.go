package main

// Pins the tool's stdout and exit codes end to end (flag parsing, the
// journal, the exit path): run with -update to regenerate testdata/
// after an intended output change.

import (
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

var fig6 = []string{"-id", "fig6", "-benches", "gcc_like", "-st-policies", "mpppb,mpppb-adaptive", "-q",
	"-warmup", "100000", "-measure", "400000"}

// small pins an experiment at the reduced budget. The counts are the
// smallest that print a table with differing values: the first testing
// mix leaves every fig9/fig10 point at 1.0000, and table3's first six
// segments (mcf_like, omnetpp_like) gain nothing from any feature.
func small(golden string, args ...string) clitest.Case {
	return clitest.Case{Golden: golden, Args: append(args, "-q", "-warmup", "50000", "-measure", "200000")}
}

func TestCLIGolden(t *testing.T) {
	clitest.Check(t, "",
		clitest.Case{Golden: "cli-table1.golden", Args: []string{"-id", "table1"}},
		clitest.Case{Golden: "cli-fig6.golden", Args: fig6},
		small("cli-fig4.golden", "-id", "fig4", "-mixes", "2", "-mc-policies", "mpppb-srrip"),
		small("cli-fig3.golden", "-id", "fig3", "-random", "3", "-climb", "3"),
		small("cli-fig5.golden", "-id", "fig5", "-mixes", "2", "-mc-policies", "mpppb-srrip"),
		small("cli-fig8.golden", "-id", "fig8", "-roc-segments", "3"),
		small("cli-fig9.golden", "-id", "fig9", "-ablate-mixes", "2"),
		small("cli-fig10.golden", "-id", "fig10", "-ablate-mixes", "2"),
		small("cli-table3.golden", "-id", "table3", "-table3-segments", "7"),
	)
}

func TestCLIResume(t *testing.T) {
	clitest.Resume(t, "", clitest.Journaled{Golden: "cli-fig6.golden", Args: fig6,
		Hashed: [][]string{{"-mixes", "3"}, {"-ablate-mixes", "5"}, {"-random", "3"}, {"-climb", "3"},
			{"-roc-segments", "3"}, {"-table3-segments", "3"}, {"-adapt-seeds", "2"},
			{"-st-policies", "mpppb"}, {"-mc-policies", "mpppb-srrip"}, {"-benches", "mcf_like"},
			{"-duel", "0,-9,-38,-117,42,15,6,0,0;0,-1,-3,-87,-6,15,2,1,0"}},
		Free: [][]string{{"-q=false"}, {"-coordinator", "-listen", "127.0.0.1:0", "-lease-ttl", "1s"}}})
}

func TestCLIBadInput(t *testing.T) {
	clitest.Refused(t, "st-policies", "-id", "fig6", "-st-policies", "mpppb,bogus")
	clitest.Refused(t, "mc-policies", "-id", "fig4", "-mc-policies", "bogus")
	clitest.Refused(t, "benches", "-id", "fig6", "-benches", "nosuch_like")
	clitest.Refused(t, "id", "-id", "fig11")
	clitest.Refused(t, "ablate-mixes", "-id", "fig9", "-ablate-mixes", "0")
	clitest.Refused(t, "random", "-id", "fig3", "-random", "0")
	clitest.Refused(t, "table3-segments", "-id", "table3", "-table3-segments", "0")
	// Parses, but τ1 < τ2 < τ3 breaks the descending-threshold invariant.
	clitest.Refused(t, "duel", "-id", "figadapt", "-duel", "48,-98,-68,-38,122,15,13,11,13;0,-9,-38,-117,42,15,6,0,0")
}

// TestCLIFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestCLIFlags(t *testing.T) {
	clitest.Flags(t, "ablate-mixes adapt-seeds benches check climb coordinator cpuprofile duel id j journal lease-ttl listen mc-policies measure memprofile mixes out plot progress q random resume roc-segments st-policies table3-segments warmup worker")
}
