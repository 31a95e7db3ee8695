package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartDisabled: with neither path set, Start and its stop function
// are no-ops that create no files.
func TestStartDisabled(t *testing.T) {
	stop := Start("", "")
	stop()
}

// TestStartWritesCPUProfile runs a real CPU profile session and checks a
// non-empty profile lands at the configured path after stop.
func TestStartWritesCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop := Start(path, "")
	// Burn a little CPU so the profile has something to sample; the file
	// is non-empty regardless (pprof writes a header).
	sink := 0
	for i := 0; i < 1<<20; i++ {
		sink += i * i
	}
	_ = sink
	stop()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("CPU profile not written: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("CPU profile is empty")
	}
}

// TestStartWritesMemProfile checks the heap profile is written on stop.
func TestStartWritesMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	stop := Start("", path)
	live := make([][]byte, 64)
	for i := range live {
		live[i] = make([]byte, 1<<12)
	}
	stop()
	_ = live

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("heap profile not written: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("heap profile is empty")
	}
}

// TestStartBothProfiles exercises the combined path main() uses.
func TestStartBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "cpu.pprof")
	mp := filepath.Join(dir, "mem.pprof")
	Start(cp, mp)()

	for _, p := range []string{cp, mp} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}
