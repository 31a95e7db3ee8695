package workload

import (
	"testing"

	"mpppb/internal/trace"
)

// BenchmarkGeneratorBatch measures trace-record delivery from a synthetic
// generator: the per-record interface path versus the batched path the sim
// drivers use, then the batched path on each Zipf-kernel segment size the
// suite draws from (a small hot set, mlpack_cf_like-2's 98,304 items and
// data_caching_like-2's 294,912 buckets). The metric of interest is ns
// per record.
func BenchmarkGeneratorBatch(b *testing.B) {
	b.Run("next", func(b *testing.B) {
		g := NewGenerator(SegmentID{Bench: "gcc_like", Seg: 0}, 0)
		var rec trace.Record
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Next(&rec)
		}
	})
	b.Run("batch256", func(b *testing.B) {
		g := NewGenerator(SegmentID{Bench: "gcc_like", Seg: 0}, 0)
		var buf [256]trace.Record
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for n < b.N {
			n += trace.FillBatch(g, buf[:])
		}
	})
	for _, seg := range []SegmentID{{Bench: "gcc_like", Seg: 0}, {Bench: "mlpack_cf_like", Seg: 2}, {Bench: "data_caching_like", Seg: 2}} {
		b.Run("seg="+seg.String(), func(b *testing.B) {
			g := NewGenerator(seg, 0)
			var buf [256]trace.Record
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for n < b.N {
				n += trace.FillBatch(g, buf[:])
			}
		})
	}
}
