package main

// Adaptive-mode byte-determinism suite: the figadapt grid (static vs
// set-dueling MPPPB across seeds) must render byte-identical TSVs at any
// -j, replayed from a journal, under the lockstep -check verifier (which
// shadows the production duel with the reference duel), and split across
// an in-process fleet coordinator+worker — the same four-way pattern the
// family goldens pin. gcc_like is the golden benchmark because its
// stream actually stresses the thresholds at this reduced scale: leader
// sets visibly diverge from the static policy (different miss/bypass
// counts), so the golden pins live duel behavior rather than an
// all-ties table.
//
// Regenerate after an intentional output change with:
//
//	go test ./cmd/mpppb-experiments -run AdaptiveGolden -update

import (
	"os"
	"path/filepath"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/journal"
	"mpppb/internal/sim"
)

var adaptiveFP = journal.Fingerprint{Config: "adaptive-test-cfg", Version: "test", Seed: 1}

const adaptiveGoldenPath = "testdata/figadapt.golden.tsv"

// adaptiveRunner builds the adaptive golden configuration: one
// threshold-sensitive benchmark, two seeds, short fast-sim runs.
func adaptiveRunner(outDir string, check bool) *runner {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 100_000, 400_000
	cfg.Check = check
	return &runner{
		stCfg:      cfg,
		mcCfg:      sim.MultiCoreConfig(),
		outDir:     outDir,
		stBenches:  []string{"gcc_like"},
		adaptSeeds: 2,
	}
}

// runAdaptive renders figadapt under the given options and returns the
// TSV; goroutine-safe (no t.Fatal).
func runAdaptive(dir string, check bool, opts *experiments.Run) (string, error) {
	r := adaptiveRunner(dir, check)
	r.opts = opts
	if err := r.run("figadapt"); err != nil {
		return "", err
	}
	b, err := os.ReadFile(filepath.Join(dir, "figadapt.tsv"))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func adaptiveTSV(t *testing.T, check bool, opts *experiments.Run) string {
	t.Helper()
	out, err := runAdaptive(t.TempDir(), check, opts)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	return out
}

func wantAdaptiveGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(adaptiveGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	return string(b)
}

func TestAdaptiveGoldenTSV(t *testing.T) {
	got := adaptiveTSV(t, false, nil)
	if *update {
		if err := os.WriteFile(adaptiveGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := wantAdaptiveGolden(t)
	if got != want {
		t.Errorf("default run differs from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	for _, workers := range []int{1, 8} {
		if j := adaptiveTSV(t, false, &experiments.Run{Workers: workers, KeepGoing: true}); j != want {
			t.Errorf("-j %d differs from golden\n--- got ---\n%s\n--- want ---\n%s", workers, j, want)
		}
	}
}

// TestAdaptiveGoldenWithCheck runs the grid with the lockstep verifier
// on: the reference duel must track the production duel decision-for-
// decision (a divergence aborts the run), and verification must not
// perturb the golden bytes.
func TestAdaptiveGoldenWithCheck(t *testing.T) {
	if *update {
		t.Skip("golden update pass")
	}
	if got, want := adaptiveTSV(t, true, nil), wantAdaptiveGolden(t); got != want {
		t.Errorf("-check run differs from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestAdaptiveGoldenWithResume: a journaled run and a second run resumed
// entirely from that journal both match the golden byte for byte —
// adaptive cells round-trip through the journal's JSON losslessly.
func TestAdaptiveGoldenWithResume(t *testing.T) {
	if *update {
		t.Skip("golden update pass")
	}
	want := wantAdaptiveGolden(t)
	jpath := filepath.Join(t.TempDir(), "run.journal")

	jrnl, err := journal.Create(jpath, adaptiveFP)
	if err != nil {
		t.Fatal(err)
	}
	cold := adaptiveTSV(t, false, &experiments.Run{Journal: jrnl})
	if err := jrnl.Close(); err != nil {
		t.Fatal(err)
	}
	if cold != want {
		t.Errorf("cold journaled run differs from golden\n--- got ---\n%s\n--- want ---\n%s", cold, want)
	}

	jrnl2, err := journal.Resume(jpath, adaptiveFP)
	if err != nil {
		t.Fatal(err)
	}
	if n := jrnl2.Len(); n == 0 {
		t.Fatal("cold run journaled no cells")
	}
	warm := adaptiveTSV(t, false, &experiments.Run{Journal: jrnl2})
	if err := jrnl2.Close(); err != nil {
		t.Fatal(err)
	}
	if warm != want {
		t.Errorf("resumed run differs from golden\n--- got ---\n%s\n--- want ---\n%s", warm, want)
	}
}

// TestAdaptiveGoldenWithFleet: the same grid split across an in-process
// fleet — a coordinator board serving the work-lease API over HTTP and a
// worker leasing cells from it — renders the golden bytes at both parties.
func TestAdaptiveGoldenWithFleet(t *testing.T) {
	if *update {
		t.Skip("golden update pass")
	}
	want := wantAdaptiveGolden(t)
	coordTSV, workerTSV := fleetSplit(t, adaptiveFP, nil, func(dir string, opts *experiments.Run) (string, error) {
		return runAdaptive(dir, false, opts)
	})
	for label, got := range map[string]string{"fleet coordinator": coordTSV, "fleet worker": workerTSV} {
		if got != want {
			t.Errorf("%s differs from golden\n--- got ---\n%s\n--- want ---\n%s", label, got, want)
		}
	}
}
