package core

// cpuHasVectorGather reports whether this CPU runs gatherRows: AVX-512 F,
// DQ, BW and VL, with the operating system saving the opmask and the full
// ZMM registers.
var cpuHasVectorGather = detectVectorGather()

func detectVectorGather() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27 // CPUID.1:ECX: XGETBV is available
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0: SSE, AVX, opmask, upper halves of ZMM0-15, ZMM16-31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv0()&zmmState != zmmState {
		return false
	}
	const avx512 = 1<<16 | 1<<17 | 1<<30 | 1<<31 // CPUID.7.0:EBX: F, DQ, BW, VL
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512 == avx512
}

// gatherVector is gather run eight kernels to an AVX-512 vector, one
// kernelRow per pass: it leaves the same index vector and returns the same
// confidence.
func (p *Predictor) gatherVector() int {
	return clampConf(gatherRows(p.rows, &p.srcs, &p.mix, p.weights, p.idx))
}

// gatherRows returns the unclamped sum of gather over rows and stores each
// feature's index in idx. rows must not be empty (NewPredictor refuses an
// empty feature set), and weights must have three bytes of capacity past
// its last table (see NewPredictor).
//
//go:noescape
func gatherRows(rows []kernelRow, srcs *[srcLen]uint64, mix *[mixLen]uint32, weights []int8, idx []uint16) int

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the state components the
// operating system saves.
func xgetbv0() uint32
