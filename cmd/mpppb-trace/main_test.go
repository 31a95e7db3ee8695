package main

// Pins the tool's stdout and exit codes across capture, stats, replay,
// export and ingest: run with -update to regenerate testdata/ after an
// intended output change.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpppb/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestGolden(t *testing.T) {
	dir := t.TempDir()
	replay := []string{"-replay", "t.mpt", "-policy", "lru,mpppb,mpppb-adaptive",
		"-warmup", "50000", "-measure", "300000"}
	clitest.Check(t, dir,
		clitest.Case{Golden: "capture.golden", Args: []string{"-capture", "gcc_like-1", "-n", "60000", "-o", "t.mpt"}},
		clitest.Case{Golden: "stats.golden", Args: []string{"-stats", "t.mpt"}},
		clitest.Case{Golden: "replay.golden", Args: replay},
		clitest.Case{Golden: "small.golden", Args: []string{"-capture", "mcf_like-0", "-n", "40", "-o", "s.mpt"}},
		clitest.Case{Golden: "export.golden", Args: []string{"-export", "s.mpt"}},
		clitest.Case{Golden: "usage.golden", Code: 2},
	)
	clitest.Resume(t, dir, clitest.Journaled{Golden: "replay.golden", Args: replay})

	csv, _, _ := clitest.Run(t, dir, "-export", "s.mpt")
	if err := os.WriteFile(filepath.Join(dir, "s.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	clitest.Check(t, dir,
		clitest.Case{Golden: "ingest.golden", Args: []string{"-ingest", "s.csv", "-o", "u.mpt"}},
		clitest.Case{Golden: "import.golden", Args: []string{"-import", "s.csv", "-o", "v.mpt"}},
	)

	// The fingerprint covers the content of the replayed trace and of the
	// ingested source: a -resume after either changes is refused.
	refusedAfter := func(args []string, change func()) {
		t.Helper()
		jpath := filepath.Join(t.TempDir(), "run.journal")
		if _, stderr, code := clitest.Run(t, dir, append(args, "-journal", jpath)...); code != 0 {
			t.Fatalf("%v: exit code %d; stderr:\n%s", args, code, stderr)
		}
		change()
		if _, stderr, code := clitest.Run(t, dir, append(args, "-journal", jpath, "-resume")...); code != 1 || !strings.Contains(stderr, "fingerprint mismatch") {
			t.Errorf("%v -resume after a content change: exit code %d, stderr:\n%s\nwant exit code 1 for a fingerprint mismatch", args, code, stderr)
		}
	}
	refusedAfter(replay, func() { clitest.Run(t, dir, "-capture", "gcc_like-1", "-n", "50000", "-o", "t.mpt") })
	refusedAfter([]string{"-ingest", "s.csv", "-o", "w.mpt"}, func() {
		if err := os.WriteFile(filepath.Join(dir, "s.csv"), []byte(strings.Join(strings.SplitAfter(csv, "\n")[:10], "")), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBadInput(t *testing.T) {
	dir := t.TempDir()
	clitest.Run(t, dir, "-capture", "mcf_like-0", "-n", "40", "-o", "s.mpt")
	clitest.Refused(t, "policy", "-replay", filepath.Join(dir, "s.mpt"), "-policy", "lru,bogus")
	clitest.Refused(t, "capture", "-capture", "gcc_like-3", "-o", filepath.Join(dir, "x.mpt"))
	clitest.Refused(t, "n", "-capture", "gcc_like-1", "-n", "0", "-o", filepath.Join(dir, "x.mpt"))
}

// TestFlags pins the flag surface: the parent's flags, less -task-timeout
// and -retries.
func TestFlags(t *testing.T) {
	clitest.Flags(t, "capture check cpuprofile export format import ingest j journal listen measure memprofile n o policy progress replay resume stats warmup")
}
