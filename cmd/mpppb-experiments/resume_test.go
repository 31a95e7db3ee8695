package main

// Crash-recovery tests: interrupting a sweep mid-run and resuming it from
// the journal must emit TSVs byte-identical to an uninterrupted run, and a
// journal written under a different configuration or corrupted on disk
// must be refused rather than silently mixed in.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpppb/internal/experiments"
	"mpppb/internal/journal"
)

// testFingerprint is the fingerprint shared by the create/resume pairs
// below; the real tool derives it from its flags (see fingerprintConfig).
var testFingerprint = journal.Fingerprint{Config: "resume-test-cfg", Version: "test", Seed: 1}

func readTSV(t *testing.T, dir, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKillAndResumeByteIdentical cancels a serial fig6/fig7 run after its
// first completed cell, then resumes from the journal with a wide pool and
// checks the TSVs against an uninterrupted serial reference run. This is
// the tool's headline guarantee: an interrupt costs only the unfinished
// cells, at any -j.
func TestKillAndResumeByteIdentical(t *testing.T) {
	refDir, resDir := t.TempDir(), t.TempDir()
	jpath := filepath.Join(t.TempDir(), "run.journal")

	// Uninterrupted serial reference.
	ref := goldenRunner(refDir)
	ref.opts = &experiments.Run{Workers: 1}
	for _, id := range []string{"fig6", "fig7"} {
		if err := ref.run(id); err != nil {
			t.Fatalf("reference run(%s): %v", id, err)
		}
	}

	// Interrupted run: cancel from the progress hook as soon as the first
	// cell completes; with one worker the next cell is never dispatched.
	jrnl, err := journal.Create(jpath, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := goldenRunner(t.TempDir())
	interrupted.opts = &experiments.Run{
		Ctx:      ctx,
		Journal:  jrnl,
		Workers:  1,
		Progress: func(string, ...any) { cancel() },
	}
	err = interrupted.run("fig6")
	cancel()
	if cerr := jrnl.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	// fig6's grid is a MIN cell and two policy cells per segment.
	if n := countJournalCells(t, jpath); n == 0 || n >= 9 {
		t.Fatalf("journal holds %d of 9 cells after interrupt, want partial coverage", n)
	}

	// Resume with a wide pool: journaled cells replay, the rest recompute.
	jrnl2, err := journal.Resume(jpath, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var fromJournal int
	resumed := goldenRunner(resDir)
	resumed.opts = &experiments.Run{
		Journal: jrnl2,
		Workers: 4,
		Progress: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "from journal") {
				fromJournal++
			}
		},
	}
	for _, id := range []string{"fig6", "fig7"} {
		if err := resumed.run(id); err != nil {
			t.Fatalf("resumed run(%s): %v", id, err)
		}
	}
	if err := jrnl2.Close(); err != nil {
		t.Fatal(err)
	}
	if fromJournal == 0 {
		t.Fatal("resumed run recomputed every cell; journal was not used")
	}

	for _, id := range []string{"fig6", "fig7"} {
		if got, want := readTSV(t, resDir, id), readTSV(t, refDir, id); got != want {
			t.Errorf("%s.tsv differs between uninterrupted and resumed runs\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", id, want, got)
		}
	}
}

// countJournalCells parses the journal and returns how many distinct cells
// it holds (excluding the header line).
func countJournalCells(t *testing.T, path string) int {
	t.Helper()
	j, err := journal.Resume(path, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.Len()
}

// TestResumeRefusesMismatchedFingerprint covers the tool's flag path: a
// journal recorded under one configuration must not resume under another
// (different flags would change the cell grid and silently corrupt the
// output).
func TestResumeRefusesMismatchedFingerprint(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.journal")
	j, err := journal.Create(jpath, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("single/sphinx3_like-0", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	other := testFingerprint
	other.Config = "different-flags"
	jf := &journal.Flags{Path: jpath, Resume: true}
	if _, err := jf.Open(other); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("Open with mismatched fingerprint = %v, want ErrMismatch", err)
	}

	// Same fingerprint still resumes cleanly.
	jf2 := &journal.Flags{Path: jpath, Resume: true}
	j2, err := jf2.Open(testFingerprint)
	if err != nil {
		t.Fatalf("Open with matching fingerprint: %v", err)
	}
	j2.Close()
}

// TestResumeRefusesCorruptJournal covers the other refusal: garbage in the
// middle of the journal (as opposed to a torn final line, which is
// truncated) aborts the resume.
func TestResumeRefusesCorruptJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.journal")
	j, err := journal.Create(jpath, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("single/sphinx3_like-0", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jf := &journal.Flags{Path: jpath, Resume: true}
	if _, err := jf.Open(testFingerprint); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Open with corrupt journal = %v, want ErrCorrupt", err)
	}
}

// TestGoldenWithJournalIdentical runs the golden fig6 configuration twice
// into the same journal — once cold, once fully from the journal — and
// requires byte-identical TSVs, proving cells round-trip through JSON
// losslessly (sim.Result is deterministic and its fields survive
// encoding/json exactly).
func TestGoldenWithJournalIdentical(t *testing.T) {
	coldDir, warmDir := t.TempDir(), t.TempDir()
	jpath := filepath.Join(t.TempDir(), "run.journal")

	jrnl, err := journal.Create(jpath, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	cold := goldenRunner(coldDir)
	cold.opts = &experiments.Run{Journal: jrnl}
	if err := cold.run("fig6"); err != nil {
		t.Fatal(err)
	}
	if err := jrnl.Close(); err != nil {
		t.Fatal(err)
	}

	jrnl2, err := journal.Resume(jpath, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	warm := goldenRunner(warmDir)
	warm.opts = &experiments.Run{Journal: jrnl2}
	if err := warm.run("fig6"); err != nil {
		t.Fatal(err)
	}
	if err := jrnl2.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := readTSV(t, warmDir, "fig6"), readTSV(t, coldDir, "fig6"); got != want {
		t.Errorf("fig6.tsv differs between cold and journal-replayed runs\n--- cold ---\n%s\n--- replayed ---\n%s", want, got)
	}
}
