package cpu

import "testing"

var sinkNow uint64

// BenchmarkCoreRecord times the core model's share of one trace record as
// the simulator's timed loop drives it: NonMem for the record's
// non-memory instructions, Now to timestamp its access, then Mem with the
// access's latency. The non-memory counts cycle the generators' pattern
// around an average of 2 (about 3.2 instructions per record, as in the
// suite), and the latencies cycle the L1, L2, LLC and DRAM latencies.
func BenchmarkCoreRecord(b *testing.B) {
	nonMem := [...]int{2, 1, 3, 2, 4, 1}
	lats := [...]int{4, 16, 40, 240}
	c := New(DefaultConfig())
	var now uint64
	k, l := 0, 0
	for i := 0; i < b.N; i++ {
		c.NonMem(nonMem[k])
		now += c.Now()
		c.Mem(lats[l])
		if k++; k == len(nonMem) {
			k = 0
		}
		if l++; l == len(lats) {
			l = 0
		}
	}
	sinkNow = now
}
