#include "go_asm.h"
#include "textflag.h"

// func gatherRows(rows []kernelRow, srcs *[srcLen]uint64, mix *[mixLen]uint32, weights []int8, idx []uint16) int
//
// One pass per kernelRow, its eight lanes in one ZMM register of qwords:
// gather the sources, shift and mask the bit ranges, fold8 the folding
// lanes, xor in the PC mix, store the valid lanes' 16-bit indices, then
// gather each weight as the low byte of a dword, sign-extend it and add
// it to its lane's running sum. The lanes are summed once at the end.
TEXT ·gatherRows(SB), NOSPLIT, $0-96
	MOVQ rows_base+0(FP), BX
	MOVQ rows_len+8(FP), CX
	MOVQ srcs+24(FP), SI
	MOVQ mix+32(FP), AX
	MOVQ weights_base+40(FP), R8
	MOVQ idx_base+64(FP), DI
	VMOVDQU32 (AX), Z8            // the mix vector, 16 dwords
	MOVQ $0xff, AX
	VPBROADCASTQ AX, Z7           // fold8's final mask
	VPXORD Y6, Y6, Y6             // per-lane weight sums, dwords

row:
	KMOVB kernelRow_valid(BX), K1
	KMOVB kernelRow_fold(BX), K2

	// raw = (srcs[src] >> shift) & wmask
	VMOVDQU32 kernelRow_src(BX), Y0
	KMOVB K1, K3                  // a gather clears its mask
	VPXORQ Z1, Z1, Z1
	VPGATHERDQ (SI)(Y0*8), K3, Z1
	VPSRLVQ kernelRow_shift(BX), Z1, Z1
	VPANDQ kernelRow_wmask(BX), Z1, Z1

	// ix = fold8(raw), in the folding lanes only
	VPSRLQ $32, Z1, Z2
	VPXORQ Z2, Z1, K2, Z1
	VPSRLQ $16, Z1, Z2
	VPXORQ Z2, Z1, K2, Z1
	VPSRLQ $8, Z1, Z2
	VPXORQ Z2, Z1, K2, Z1
	VPANDQ Z7, Z1, K2, Z1

	// ix ^= mix[mix]
	VMOVDQU32 kernelRow_mix(BX), Y3
	VPERMD Z8, Z3, Z3
	VPMOVZXDQ Y3, Z3
	VPXORQ Z3, Z1, Z1

	// idx[i] = ix, for the valid lanes
	VPMOVQW Z1, K1, (DI)

	// sum += weights[base+ix]
	VPADDQ kernelRow_base(BX), Z1, Z1
	VPXORD Y4, Y4, Y4
	VPGATHERQD (R8)(Z1*1), K1, Y4
	VPSLLD $24, Y4, Y4
	VPSRAD $24, Y4, Y4
	VPADDD Y4, Y6, Y6

	ADDQ $kernelRow__size, BX
	ADDQ $(2*const_rowLanes), DI
	DECQ CX
	JNZ row

	// Sum the eight lanes.
	VEXTRACTI128 $1, Y6, X0
	VPADDD X0, X6, X0
	VPSHUFD $0x4e, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VPADDD X1, X0, X0
	VMOVD X0, AX
	MOVLQSX AX, AX
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
