package trace

import (
	"math/rand"
	"testing"
)

func randRecords(t *testing.T, n int, seed int64) []Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PC:      rng.Uint64() >> uint(rng.Intn(40)),
			Addr:    rng.Uint64() >> uint(rng.Intn(40)),
			IsWrite: rng.Intn(4) == 0,
			NonMem:  uint16(rng.Intn(300)),
		}
	}
	return recs
}

func TestColumnsRoundTrip(t *testing.T) {
	recs := randRecords(t, 257, 1)
	cols := ColumnsOf(recs)
	if cols.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", cols.Len(), len(recs))
	}
	back := cols.Records()
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
}

// The columnar replay must deliver exactly the stream ReplayGenerator
// delivers — across wraps, and identically through Next, NextBatch, and
// NextColumns.
func TestColumnarReplayMatchesReplayGenerator(t *testing.T) {
	recs := randRecords(t, 97, 3) // prime length: batches straddle the wrap
	ref := NewReplayGenerator("ref", recs)
	colNext := NewColumnarReplay("col", ColumnsOf(recs))
	colBatch := NewColumnarReplay("col", ColumnsOf(recs))
	colCols := NewColumnarReplay("col", ColumnsOf(recs))

	const total = 500
	want := make([]Record, total)
	for i := range want {
		ref.Next(&want[i])
	}

	// Per-record Next.
	var got Record
	for i := range want {
		colNext.Next(&got)
		if got != want[i] {
			t.Fatalf("Next record %d: %+v != %+v", i, got, want[i])
		}
	}

	// Row-major batches of awkward size.
	batch := make([]Record, 13)
	for i := 0; i < total; {
		n := colBatch.NextBatch(batch)
		if n <= 0 {
			t.Fatalf("NextBatch returned %d", n)
		}
		for j := 0; j < n && i < total; j, i = j+1, i+1 {
			if batch[j] != want[i] {
				t.Fatalf("NextBatch record %d: %+v != %+v", i, batch[j], want[i])
			}
		}
	}

	// Columnar batches.
	dst := Columns{
		PCs:    make([]uint64, 13),
		Addrs:  make([]uint64, 13),
		Writes: make([]bool, 13),
		NonMem: make([]uint16, 13),
	}
	for i := 0; i < total; {
		n := colCols.NextColumns(&dst, 13)
		if n <= 0 {
			t.Fatalf("NextColumns returned %d", n)
		}
		for j := 0; j < n && i < total; j, i = j+1, i+1 {
			if dst.Record(j) != want[i] {
				t.Fatalf("NextColumns record %d: %+v != %+v", i, dst.Record(j), want[i])
			}
		}
	}

	if colNext.Wraps != ref.Wraps {
		t.Fatalf("Wraps: columnar %d != reference %d", colNext.Wraps, ref.Wraps)
	}
}

func TestColumnarReplayWrapStopsAtBoundary(t *testing.T) {
	recs := randRecords(t, 5, 4)
	g := NewColumnarReplay("w", ColumnsOf(recs))
	dst := Columns{
		PCs:    make([]uint64, 8),
		Addrs:  make([]uint64, 8),
		Writes: make([]bool, 8),
		NonMem: make([]uint16, 8),
	}
	if n := g.NextColumns(&dst, 8); n != 5 {
		t.Fatalf("first refill = %d, want 5 (stop at wrap)", n)
	}
	if g.Wraps != 1 {
		t.Fatalf("Wraps = %d, want 1", g.Wraps)
	}
	if n := g.NextColumns(&dst, 3); n != 3 {
		t.Fatalf("post-wrap refill = %d, want 3", n)
	}
	if dst.Record(0) != recs[0] {
		t.Fatal("post-wrap stream did not restart at record 0")
	}
	g.Reset()
	if g.Wraps != 0 {
		t.Fatalf("Reset kept Wraps = %d", g.Wraps)
	}
	var r Record
	g.Next(&r)
	if r != recs[0] {
		t.Fatal("Reset did not rewind to record 0")
	}
}

func TestColumnarReplayEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty columnar trace accepted")
		}
	}()
	NewColumnarReplay("empty", &Columns{})
}
