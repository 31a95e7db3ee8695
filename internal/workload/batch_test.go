package workload

import (
	"testing"

	"mpppb/internal/trace"
)

// TestNextBatchMatchesNextStream proves the batched path delivers exactly
// the per-record stream for every benchmark — the core suite and the
// extension families — including with ragged batch sizes that straddle
// the kernels' internal emit boundaries. A generator on the Gen chassis
// (every one but a trace file's segment) fills each batch.
func TestNextBatchMatchesNextStream(t *testing.T) {
	const total = 4096
	sizes := []int{1, 3, 64, 256, 1000}
	for _, b := range AllBenchmarks() {
		id := SegmentID{Bench: b, Seg: 1}
		ref := NewGenerator(id, 0)
		want := make([]trace.Record, total)
		for i := range want {
			ref.Next(&want[i])
		}
		for _, sz := range sizes {
			g := NewGenerator(id, 0)
			got := make([]trace.Record, 0, total)
			buf := make([]trace.Record, sz)
			for len(got) < total {
				n := trace.FillBatch(g, buf)
				if n <= 0 {
					t.Fatalf("%s: FillBatch returned %d", b, n)
				}
				if _, file := g.(*traceSegment); !file && n != sz {
					t.Fatalf("%s: batch of %d filled %d records", b, sz, n)
				}
				got = append(got, buf[:n]...)
			}
			for i := 0; i < total; i++ {
				if got[i] != want[i] {
					t.Fatalf("%s (batch %d): record %d = %+v, want %+v", b, sz, i, got[i], want[i])
				}
			}
		}
	}
}
