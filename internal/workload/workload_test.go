package workload

import (
	"testing"

	"mpppb/internal/trace"
)

func TestSuiteShape(t *testing.T) {
	benches := Benchmarks()
	if len(benches) != 33 {
		t.Fatalf("suite has %d benchmarks, want 33 (29 SPEC-like + 4 server/ML)", len(benches))
	}
	segs := Segments()
	if len(segs) != 99 {
		t.Fatalf("suite has %d segments, want 99", len(segs))
	}
	seen := map[string]bool{}
	for _, b := range benches {
		if seen[b] {
			t.Fatalf("duplicate benchmark %q", b)
		}
		seen[b] = true
	}
	classes := Classes()
	for _, b := range benches {
		if classes[b] == "" {
			t.Errorf("benchmark %q has no class", b)
		}
	}
}

func TestLookup(t *testing.T) {
	if !Lookup("mcf_like") {
		t.Fatal("mcf_like not found")
	}
	if Lookup("nonesuch") {
		t.Fatal("bogus benchmark found")
	}
}

func TestNewGeneratorPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown benchmark")
		}
	}()
	NewGenerator(SegmentID{Bench: "nope", Seg: 0}, 0)
}

func TestNewGeneratorPanicsOnBadSegment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range segment")
		}
	}()
	NewGenerator(SegmentID{Bench: "mcf_like", Seg: 7}, 0)
}

func TestGeneratorsDeterministicAndResettable(t *testing.T) {
	for _, id := range Segments() {
		g1 := NewGenerator(id, CoreBase(0))
		g2 := NewGenerator(id, CoreBase(0))
		var r1, r2 trace.Record
		for i := 0; i < 2000; i++ {
			g1.Next(&r1)
			g2.Next(&r2)
			if r1 != r2 {
				t.Fatalf("%s: two instances diverged at record %d: %+v vs %+v", id, i, r1, r2)
			}
		}
		// Reset replays the same stream.
		first := make([]trace.Record, 100)
		g1.Reset()
		for i := range first {
			g1.Next(&first[i])
		}
		g1.Reset()
		for i := range first {
			g1.Next(&r1)
			if r1 != first[i] {
				t.Fatalf("%s: reset did not replay (record %d)", id, i)
			}
		}
	}
}

// TestGeneratorResetDoesNotAllocate: a kernel's tables depend only on its
// parameters, so Reset re-seeds the kernel in place and keeps them. Every
// driver resets the generator it is handed, so a rebuild here is paid by
// every cell on the segment.
func TestGeneratorResetDoesNotAllocate(t *testing.T) {
	for _, id := range Segments() {
		g := NewGenerator(id, CoreBase(0))
		var r trace.Record
		for i := 0; i < 1000; i++ {
			g.Next(&r)
		}
		if avg := testing.AllocsPerRun(3, g.Reset); avg != 0 {
			t.Errorf("%s: Reset allocates %v times", id, avg)
		}
	}
}

// TestSeededGenerator pins the seed-axis contract: salt 0 is the
// canonical stream byte-for-byte (every golden depends on this), each
// other salt draws a distinct but deterministic stream, and family
// benchmarks accept salts without error (folding them into the base).
func TestSeededGenerator(t *testing.T) {
	id := SegmentID{Bench: "mcf_like", Seg: 1}
	var r0, r1 trace.Record

	canon := NewGenerator(id, CoreBase(0))
	zero := NewSeededGenerator(id, CoreBase(0), 0)
	for i := 0; i < 2000; i++ {
		canon.Next(&r0)
		zero.Next(&r1)
		if r0 != r1 {
			t.Fatalf("salt 0 diverged from canonical stream at record %d", i)
		}
	}

	salted := NewSeededGenerator(id, CoreBase(0), 1)
	saltedAgain := NewSeededGenerator(id, CoreBase(0), 1)
	differs := false
	canon.Reset()
	for i := 0; i < 2000; i++ {
		canon.Next(&r0)
		salted.Next(&r1)
		if r0 != r1 {
			differs = true
		}
		var r2 trace.Record
		saltedAgain.Next(&r2)
		if r1 != r2 {
			t.Fatalf("salt 1 not deterministic at record %d", i)
		}
	}
	if !differs {
		t.Fatal("salt 1 replayed the canonical stream")
	}

	fam := NewSeededGenerator(SegmentID{Bench: "mix_oltp", Seg: 0}, CoreBase(0), 3)
	for i := 0; i < 100; i++ {
		fam.Next(&r0)
	}
}

func TestGeneratorNames(t *testing.T) {
	g := NewGenerator(SegmentID{Bench: "gcc_like", Seg: 2}, 0)
	if g.Name() != "gcc_like-2" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestSegmentsDifferWithinBenchmark(t *testing.T) {
	// Different segments of a benchmark must generate different streams
	// (different seeds/footprints model different simpoints).
	g0 := NewGenerator(SegmentID{Bench: "mcf_like", Seg: 0}, 0)
	g1 := NewGenerator(SegmentID{Bench: "mcf_like", Seg: 1}, 0)
	var r0, r1 trace.Record
	same := 0
	for i := 0; i < 1000; i++ {
		g0.Next(&r0)
		g1.Next(&r1)
		if r0.Addr == r1.Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("segments 0 and 1 nearly identical (%d/1000 same addresses)", same)
	}
}

func TestAddressBaseRespected(t *testing.T) {
	const base = uint64(7) << 40
	for _, id := range Segments() {
		g := NewGenerator(id, base)
		var r trace.Record
		for i := 0; i < 500; i++ {
			g.Next(&r)
			if r.Addr < base {
				t.Fatalf("%s: address %#x below base %#x", id, r.Addr, base)
			}
		}
	}
}

func TestRecordsHavePCs(t *testing.T) {
	for _, id := range Segments() {
		g := NewGenerator(id, CoreBase(0))
		var r trace.Record
		pcs := map[uint64]bool{}
		for i := 0; i < 2000; i++ {
			g.Next(&r)
			if r.PC == 0 {
				t.Fatalf("%s: zero PC", id)
			}
			pcs[r.PC] = true
		}
		if len(pcs) < 2 {
			t.Errorf("%s: only %d distinct PCs in 2000 records", id, len(pcs))
		}
	}
}

func TestInstructionAccounting(t *testing.T) {
	g := NewGenerator(SegmentID{Bench: "gcc_like", Seg: 0}, 0)
	var r trace.Record
	var instr uint64
	for i := 0; i < 1000; i++ {
		g.Next(&r)
		instr += r.Instructions()
	}
	if instr < 1000 {
		t.Fatalf("1000 records yielded %d instructions", instr)
	}
	// Memory instructions should be a plausible fraction (15%-70%).
	frac := 1000.0 / float64(instr)
	if frac < 0.15 || frac > 0.7 {
		t.Fatalf("memory instruction fraction %.2f implausible", frac)
	}
}

func TestMixesDeterministicAndDistinct(t *testing.T) {
	m1 := Mixes(100, DefaultMixSeed)
	m2 := Mixes(100, DefaultMixSeed)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("mix %d differs across calls", i)
		}
	}
	// Within a mix, segments are distinct (drawn without replacement).
	for i, m := range m1 {
		seen := map[SegmentID]bool{}
		for _, id := range m {
			if seen[id] {
				t.Fatalf("mix %d repeats segment %s", i, id)
			}
			seen[id] = true
		}
	}
	// Different seeds give different mixes.
	m3 := Mixes(100, DefaultMixSeed+1)
	diff := 0
	for i := range m1 {
		if m1[i] != m3[i] {
			diff++
		}
	}
	if diff < 90 {
		t.Fatalf("only %d/100 mixes differ across seeds", diff)
	}
}

func TestCoreBasesDisjoint(t *testing.T) {
	// Each core's generator footprint must stay within its own 1TB region.
	for core := 0; core < 4; core++ {
		lo := CoreBase(core)
		hi := CoreBase(core + 1)
		g := NewGenerator(SegmentID{Bench: "lbm_like", Seg: 2}, lo)
		var r trace.Record
		for i := 0; i < 2000; i++ {
			g.Next(&r)
			if r.Addr < lo || r.Addr >= hi {
				t.Fatalf("core %d address %#x outside [%#x,%#x)", core, r.Addr, lo, hi)
			}
		}
	}
}

func TestWorkingSetDiversity(t *testing.T) {
	// Suite must contain both small-footprint and large-footprint
	// benchmarks: measure distinct blocks over a window.
	distinct := func(bench string) int {
		g := NewGenerator(SegmentID{Bench: bench, Seg: 1}, 0)
		var r trace.Record
		blocks := map[uint64]bool{}
		for i := 0; i < 50000; i++ {
			g.Next(&r)
			blocks[r.Block()] = true
		}
		return len(blocks)
	}
	small := distinct("povray_like")
	big := distinct("mcf_like")
	if small >= big {
		t.Fatalf("povray_like (%d blocks) not smaller than mcf_like (%d)", small, big)
	}
	if big < 10000 {
		t.Fatalf("mcf_like touched only %d distinct blocks in 50k records", big)
	}
}

func TestSegmentString(t *testing.T) {
	id := SegmentID{Bench: "gcc_like", Seg: 1}
	if id.String() != "gcc_like-1" {
		t.Fatalf("String = %q", id.String())
	}
	m := Mix{id, id, id, id}
	if m.String() != "gcc_like-1+gcc_like-1+gcc_like-1+gcc_like-1" {
		t.Fatalf("mix String = %q", m.String())
	}
}

func TestParseSegmentID(t *testing.T) {
	id, err := ParseSegmentID("mcf_like-2")
	if err != nil || id.Bench != "mcf_like" || id.Seg != 2 {
		t.Fatalf("ParseSegmentID = %v, %v", id, err)
	}
	// Benchmarks with underscores and digits still parse.
	if _, err := ParseSegmentID("h264ref_like-0"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "mcf_like", "mcf_like-", "-2", "mcf_like-9", "nope-0", "mcf_like-x"} {
		if _, err := ParseSegmentID(bad); err == nil {
			t.Errorf("ParseSegmentID(%q) succeeded", bad)
		}
	}
}

// TestGoldenTraceHashes pins the first records of representative segments.
// Workload changes invalidate EXPERIMENTS.md's measured numbers; if this
// test fails after an intentional workload change, re-run the experiment
// campaign and update both the hashes and the documentation.
func TestGoldenTraceHashes(t *testing.T) {
	hash := func(id SegmentID) uint64 {
		g := NewGenerator(id, CoreBase(0))
		var r trace.Record
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			h ^= v
			h *= 1099511628211
		}
		for i := 0; i < 50000; i++ {
			g.Next(&r)
			mix(r.PC)
			mix(r.Addr)
			if r.IsWrite {
				mix(1)
			}
			mix(uint64(r.NonMem))
		}
		return h
	}
	golden := map[string]uint64{
		"mcf_like-0":          0x119aa1e4e887ab6d,
		"gcc_like-1":          0x16afe27ad4bdaefd,
		"libquantum_like-2":   0x4c73e72cc27914b7,
		"data_caching_like-0": 0x4d025c3ec2e853a2,
	}
	for name, want := range golden {
		id, err := ParseSegmentID(name)
		if err != nil {
			t.Fatal(err)
		}
		got := hash(id)
		if want == 0 {
			t.Logf("golden[%q] = %#x", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: trace hash %#x, want %#x (workload changed; see comment)", name, got, want)
		}
	}
}
