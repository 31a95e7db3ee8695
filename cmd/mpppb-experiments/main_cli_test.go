package main

// Pins the tool's stdout and exit codes end to end (flag parsing, the
// journal, the exit path): run with -update to regenerate testdata/
// after an intended output change.

import (
	"os"
	"path/filepath"
	"strings"
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
	// Every table runs lru itself and keys its columns by name: a listed
	// lru or a repeated name would merge two runs into one column (fig4,
	// fig5) or break the table's shape (fig6).
	clitest.Refused(t, "mc-policies", "-id", "fig5", "-mc-policies", "lru,mpppb-srrip")
	clitest.Refused(t, "mc-policies", "-id", "fig5", "-mc-policies", "mpppb-srrip,mpppb-srrip")
	clitest.Refused(t, "st-policies", "-id", "fig6", "-st-policies", "lru,mpppb")
	clitest.Refused(t, "st-policies", "-id", "fig6", "-st-policies", "mpppb,mpppb")
	clitest.Refused(t, "benches", "-id", "fig6", "-benches", "nosuch_like")
	clitest.Refused(t, "id", "-id", "fig11")
	clitest.Refused(t, "ablate-mixes", "-id", "fig9", "-ablate-mixes", "0")
	clitest.Refused(t, "random", "-id", "fig3", "-random", "0")
	// 0 means no climb; a negative budget would run as 0 silently.
	clitest.Refused(t, "climb", "-id", "fig3", "-random", "1", "-climb", "-4")
	clitest.Refused(t, "table3-segments", "-id", "table3", "-table3-segments", "0")
	// Parses, but τ1 < τ2 < τ3 breaks the descending-threshold invariant.
	clitest.Refused(t, "duel", "-id", "figadapt", "-duel", "48,-98,-68,-38,122,15,13,11,13;0,-9,-38,-117,42,15,6,0,0")
	// Workers treat a lease deadline under 100ms as 100ms.
	clitest.Refused(t, "lease-ttl", "-id", "table1", "-coordinator", "-listen", "127.0.0.1:0", "-lease-ttl", "3ns")
	clitest.Refused(t, "lease-ttl", "-id", "table1", "-coordinator", "-listen", "127.0.0.1:0", "-lease-ttl", "-5s")
}

// TestCLIFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestCLIFlags(t *testing.T) {
	clitest.Flags(t, "ablate-mixes adapt-seeds benches check climb coordinator cpuprofile duel id j journal lease-ttl listen mc-policies measure memprofile mixes out plot progress q random resume roc-segments st-policies table3-segments warmup worker")
}

// TestCLIRefusesV1Journal: a journal in format mpppb-journal/v1, whose
// fig8 cells hold every sample packed under the keys that now hold count
// tables, is refused on -resume with exit code 1 and a message naming
// its format, rather than decoded into the new cell type.
func TestCLIRefusesV1Journal(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"journal":"mpppb-journal/v1","fingerprint":{"config":"8c1f00b7a2e4d5c6","version":"dev","seed":42}}
{"key":"roc/sdbp/mcf_like-0","status":"ok","value":{"c":[3,-1,3],"d":[1,0,0]}}
`
	if err := os.WriteFile(filepath.Join(dir, "v1.journal"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := clitest.Run(t, dir, "-id", "fig8", "-roc-segments", "1", "-q",
		"-warmup", "50000", "-measure", "200000", "-journal", "v1.journal", "-resume")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "mpppb-journal/v1") {
		t.Errorf("exit code %d, stdout %q, stderr %q; want exit code 1, no stdout and a message naming format mpppb-journal/v1",
			code, stdout, stderr)
	}
}
