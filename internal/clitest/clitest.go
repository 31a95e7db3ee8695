// Package clitest runs a command's main in a child copy of its own test
// binary, so a test can pin what the tool prints and how it exits without
// building it separately. Wire it up once per command package:
//
//	func TestMain(m *testing.M) { clitest.Main(m, main) }
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Update is the -update flag: rewrite golden files instead of comparing.
var Update = flag.Bool("update", false, "rewrite golden files in testdata/")

const childEnv = "MPPPB_CLITEST_MAIN"

// Main is a TestMain body. In a child started by Run it runs the tool's
// main (exit 0 when main returns); otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run executes the tool with args in dir (empty = the package directory)
// and returns its stdout, its stderr and its exit code.
func Run(t testing.TB, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	var exit *exec.ExitError
	switch err := cmd.Run(); {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// Case is one pinned invocation: the tool's arguments, the exit code it
// must return, and the golden file under testdata/ holding its stdout.
type Case struct {
	Golden string
	Args   []string
	Code   int
}

// Check runs each case in dir as a subtest.
func Check(t *testing.T, dir string, cases ...Case) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.Golden, func(t *testing.T) {
			stdout, stderr, code := Run(t, dir, c.Args...)
			if code != c.Code {
				t.Errorf("exit code %d, want %d; stderr:\n%s", code, c.Code, stderr)
			}
			Golden(t, c.Golden, stdout)
		})
	}
}

// Journaled is one tool invocation whose journal contract Resume pins.
type Journaled struct {
	// Golden is the testdata/ file holding the invocation's stdout.
	Golden string
	Args   []string
	// Hashed are flag settings the journal fingerprint covers besides
	// -warmup and -measure: a -resume with any of them is refused.
	Hashed [][]string
	// Free are flag settings it leaves out besides -j, -check, -listen
	// and -progress: a -resume with any of them reprints the golden.
	Free [][]string
}

// Resume runs c.Args with -journal and requires the golden; then resumes
// that journal with each free setting, requiring the golden again, and
// with each hashed setting, requiring a refusal for a fingerprint
// mismatch.
func Resume(t *testing.T, dir string, c Journaled) {
	t.Helper()
	jpath := filepath.Join(t.TempDir(), "run.journal")
	resume := func(extra []string) []string {
		args := append(append([]string(nil), c.Args...), extra...)
		return append(args, "-journal", jpath, "-resume")
	}
	Check(t, dir, Case{Golden: c.Golden, Args: append(append([]string(nil), c.Args...), "-journal", jpath)})
	free := append([][]string{nil, {"-j", "1"}, {"-check"}, {"-listen", "127.0.0.1:0"}, {"-progress", "1h"}}, c.Free...)
	for _, f := range free {
		Check(t, dir, Case{Golden: c.Golden, Args: resume(f)})
	}
	for _, h := range append([][]string{{"-warmup", "12345"}, {"-measure", "123456"}}, c.Hashed...) {
		if _, stderr, code := Run(t, dir, resume(h)...); code != 1 || !strings.Contains(stderr, "fingerprint mismatch") {
			t.Errorf("-resume with %v: exit code %d, stderr:\n%s\nwant exit code 1 for a fingerprint mismatch", h, code, stderr)
		}
	}
}

// Refused requires the tool to reject args before doing any work: exit
// code 1, nothing on stdout, and a message on stderr naming -flag.
func Refused(t *testing.T, flag string, args ...string) {
	t.Helper()
	RefusedIn(t, "", flag, args...)
}

// RefusedIn is Refused run in dir (empty = the package directory), so
// args can name files there by relative paths and the subtest name, which
// is args, stays the same from run to run.
func RefusedIn(t *testing.T, dir, flag string, args ...string) {
	t.Helper()
	t.Run(strings.Join(args, " "), func(t *testing.T) {
		stdout, stderr, code := Run(t, dir, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "-"+flag) {
			t.Errorf("exit code %d, stdout %q, stderr %q; want exit code 1, no stdout and a message naming -%s",
				code, stdout, stderr, flag)
		}
	})
}

// Flags requires the tool's -h to list exactly names, space-separated in
// the sorted order -h prints them (the test binary's own flags aside).
func Flags(t *testing.T, names string) {
	t.Helper()
	_, stderr, code := Run(t, "", "-h")
	var got []string
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			if name := strings.Fields(rest)[0]; !strings.HasPrefix(name, "test.") && name != "update" {
				got = append(got, name)
			}
		}
	}
	if code != 0 || strings.Join(got, " ") != names {
		t.Errorf("-h: exit code %d, flags\n  %s\nwant exit code 0, flags\n  %s", code, strings.Join(got, " "), names)
	}
}

// Golden compares got with testdata/name, or rewrites the file under
// -update.
func Golden(t testing.TB, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *Update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
