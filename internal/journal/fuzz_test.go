package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalLoad feeds arbitrary bytes to Resume, which must classify
// every input as a valid journal, a fingerprint mismatch, another format,
// or corruption — never panic and never mis-parse. Seeds cover a
// well-formed journal, a torn tail, a v1 header, and assorted malformed
// headers.
func FuzzJournalLoad(f *testing.F) {
	fp := Fingerprint{Config: "cfg", Version: "v1", Seed: 42}

	// A genuine journal with a few records, produced by the real writer.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.journal")
	j, err := Create(path, fp)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Record("cell-a", 1.5); err != nil {
		f.Fatal(err)
	}
	if err := j.RecordFailure("cell-b", os.ErrInvalid); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail: must truncate, not reject
	f.Add([]byte{})
	f.Add([]byte("{\"journal\":\"mpppb-journal/v2\"}\n"))
	f.Add([]byte("not json at all\n{{{"))
	f.Add([]byte("{\"journal\":\"mpppb-journal/v2\",\"fingerprint\":{\"config\":\"other\"}}\n"))
	f.Add([]byte("{\"journal\":\"mpppb-journal/v1\",\"fingerprint\":{\"config\":\"cfg\",\"version\":\"v1\",\"seed\":42}}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Resume(p, fp)
		if err != nil {
			return // rejected cleanly
		}
		// Accepted: the journal must be usable — readable and appendable.
		var v float64
		j.Load("cell-a", &v)
		if err := j.Record("fuzz-cell", 2.0); err != nil {
			t.Fatalf("accepted journal rejected a record: %v", err)
		}
		if ok, err := j.Load("fuzz-cell", &v); err != nil || !ok {
			t.Fatalf("round-trip of appended record failed: ok=%v err=%v", ok, err)
		}
		j.Close()
	})
}
