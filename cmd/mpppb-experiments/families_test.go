package main

// Family golden-output tests: the workload families (weighted mix,
// rd-model) flow through the same grid/journal/fleet plumbing as the core
// suite, so a fig6/fig7 sweep restricted to one mix preset and one rd
// preset must render byte-identical TSVs locally, at any -j, replayed from
// a journal, and distributed across a fleet coordinator and worker. fig6
// (speedup) pins the relative numbers; fig7 (raw MPKI) pins the absolute
// ones — on these synthetic streams the policies can legitimately tie, so
// the MPKI golden is what anchors the simulated values.
//
// Regenerate after an intentional output change with:
//
//	go test ./cmd/mpppb-experiments -run FamiliesGolden -update

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/journal"
	"mpppb/internal/sim"
)

var familiesFP = journal.Fingerprint{Config: "families-test-cfg", Version: "test", Seed: 1}

var familiesIDs = []string{"fig6", "fig7"}

// familiesRunner builds the family configuration: one mix preset and one
// rd preset (3 segments each), two policies, short runs.
func familiesRunner(outDir string) *runner {
	cfg := sim.SingleThreadConfig()
	cfg.Warmup, cfg.Measure = 100_000, 300_000
	return &runner{
		stCfg:      cfg,
		mcCfg:      sim.MultiCoreConfig(),
		outDir:     outDir,
		stPolicies: []string{"sdbp", "mpppb"},
		stBenches:  []string{"mix_oltp", "rd_server"},
	}
}

func familiesGoldenPath(id string) string {
	return filepath.Join("testdata", id+"-families.golden.tsv")
}

// runFamilies runs fig6 and fig7 under the given options and returns the
// TSVs keyed by id; goroutine-safe (no t.Fatal).
func runFamilies(dir string, opts *experiments.Run) (map[string]string, error) {
	r := familiesRunner(dir)
	r.opts = opts
	out := make(map[string]string, len(familiesIDs))
	for _, id := range familiesIDs {
		if err := r.run(id); err != nil {
			return nil, err
		}
		b, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil {
			return nil, err
		}
		out[id] = string(b)
	}
	return out, nil
}

// familiesTSVs is the fatal-on-error form for the test goroutine.
func familiesTSVs(t *testing.T, opts *experiments.Run) map[string]string {
	t.Helper()
	out, err := runFamilies(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("family run: %v", err)
	}
	return out
}

// wantFamiliesGoldens loads the committed goldens.
func wantFamiliesGoldens(t *testing.T) map[string]string {
	t.Helper()
	want := make(map[string]string, len(familiesIDs))
	for _, id := range familiesIDs {
		b, err := os.ReadFile(familiesGoldenPath(id))
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		want[id] = string(b)
	}
	return want
}

func compareFamilies(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	for _, id := range familiesIDs {
		if got[id] != want[id] {
			t.Errorf("%s: family %s differs\n--- got ---\n%s\n--- want ---\n%s", label, id, got[id], want[id])
		}
	}
}

func TestFamiliesGoldenTSV(t *testing.T) {
	got := familiesTSVs(t, nil)
	if *update {
		for _, id := range familiesIDs {
			if err := os.WriteFile(familiesGoldenPath(id), []byte(got[id]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	compareFamilies(t, "default run", got, wantFamiliesGoldens(t))
	// The pool merges deterministically: wide pools render the same bytes.
	for _, workers := range []int{1, 8} {
		j := familiesTSVs(t, &experiments.Run{Workers: workers, KeepGoing: true})
		compareFamilies(t, fmt.Sprintf("-j %d", workers), j, got)
	}
}

// TestFamiliesGoldenWithResume: a journaled family run and a second run
// resumed entirely from that journal both match the goldens byte for byte
// — family cells round-trip through the journal's JSON losslessly.
func TestFamiliesGoldenWithResume(t *testing.T) {
	if *update {
		t.Skip("golden update pass")
	}
	want := wantFamiliesGoldens(t)
	jpath := filepath.Join(t.TempDir(), "run.journal")

	jrnl, err := journal.Create(jpath, familiesFP)
	if err != nil {
		t.Fatal(err)
	}
	cold := familiesTSVs(t, &experiments.Run{Journal: jrnl})
	if err := jrnl.Close(); err != nil {
		t.Fatal(err)
	}
	compareFamilies(t, "cold journaled run", cold, want)

	jrnl2, err := journal.Resume(jpath, familiesFP)
	if err != nil {
		t.Fatal(err)
	}
	if n := jrnl2.Len(); n == 0 {
		t.Fatal("cold run journaled no cells")
	}
	warm := familiesTSVs(t, &experiments.Run{Journal: jrnl2})
	if err := jrnl2.Close(); err != nil {
		t.Fatal(err)
	}
	compareFamilies(t, "resumed run", warm, want)
}

// TestFamiliesGoldenWithFleet: the same sweep split across an in-process
// fleet — a coordinator board serving the work-lease API over HTTP and a
// worker leasing cells from it — renders the golden bytes at both parties.
func TestFamiliesGoldenWithFleet(t *testing.T) {
	if *update {
		t.Skip("golden update pass")
	}
	want := wantFamiliesGoldens(t)
	coordTSV, workerTSV := fleetSplit(t, familiesFP, nil, runFamilies)
	compareFamilies(t, "fleet coordinator", coordTSV, want)
	compareFamilies(t, "fleet worker", workerTSV, want)
}
