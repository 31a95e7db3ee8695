package core

import "slices"

// Compiled feature kernels. Feature.Index is the readable reference
// implementation: on every access it re-derives the table width, re-clamps
// the offset bit range, and switches on the feature kind. None of that
// depends on the access, so NewPredictor compiles each feature once into a
// fastKernel — operands resolved, offset range clamped, fold decided,
// and the feature's weight table located by offset into one contiguous
// array — and the per-access path just executes it. The kernel tests pin
// the compiled indices and confidence to Feature.Index and a plain sum.

// History ring geometry: one power-of-two ring of recent PCs per core,
// holding at least the MaxW entries a pc feature can reach. Kernels read
// "the w-th most recent PC" straight out of the ring, so predicting copies
// no history (the reference path materializes a History array per access).
const (
	histRingLen  = 32
	histRingMask = histRingLen - 1
)

// widthMask returns the mask that retains bits b..e after bit b has been
// shifted to position 0, matching extractBits.
func widthMask(b, e int) uint64 {
	if width := e - b + 1; width < 64 {
		return uint64(1)<<uint(width) - 1
	}
	return ^uint64(0)
}

// fold8 xor-folds a 64-bit value to 8 bits without foldTo's data-dependent
// loop; xor associativity makes the results identical.
func fold8(v uint64) uint32 {
	v ^= v >> 32
	v ^= v >> 16
	v ^= v >> 8
	return uint32(v & 0xff)
}

// fastKernel is one feature with every access-independent decision taken,
// in a branch-light form: every feature is the same straight-line
// expression
//
//	raw = (srcs[src] >> shift) & wmask
//	ix  = fold8(raw) if fold, else raw
//	ix ^= mix[mix]
//
// over a per-prediction source vector: slot 0 is the constant 0 (bias),
// then the PC, the address (offset features read it with a pre-clamped
// shift/mask, which is equivalent because offsetRange keeps the bit range
// inside the block offset), the three boolean raws, and one slot per
// DISTINCT pc-history depth used by the feature set, materialized from the
// ring once per prediction instead of once per feature.
//
// The X parameter's PC mix is folded once per prediction, not per kernel.
// Xor-folding is linear, foldTo(r^m, n) == foldTo(r, n) ^ foldTo(m, n), so
// predict folds PC>>2 once per distinct index width into the mix vector,
// and a mixed
// kernel xors in the entry for its own width (its IndexBits). Unmixed
// kernels read slot 0, which stays 0. What is left to fold per kernel is
// the raw bit range, and that only when it is wider than the index: a
// pc or address range wider than 8 bits, which fold8 folds with a fixed
// three shifts. Every other range already fits its table, so the index
// needs no mask.
type fastKernel struct {
	src   uint8  // source-vector slot
	shift uint8  // bit-range start
	mix   uint8  // mix-vector slot: IndexBits when X is set, else 0
	fold  bool   // the range is wider than the 8-bit index: fold8 it
	base  uint32 // table offset in the predictor's flat weight array
	wmask uint64 // bit-range width mask applied after the shift
}

// Fixed source-vector slots; history depths follow from srcHist up.
const (
	srcZero     = 0 // bias: constant 0
	srcPC       = 1
	srcAddr     = 2 // address and offset features
	srcBurst    = 3
	srcInsert   = 4
	srcLastMiss = 5
	srcHist     = 6 // first history slot
)

// The source and mix vectors are fixed power-of-two arrays, and kernels
// index them through these masks, so the loads need no bounds check. The
// source vector holds the fixed slots plus one per distinct history depth
// (at most MaxW); the mix vector one entry per index width, 0..8.
const (
	srcLen  = 32
	srcMask = srcLen - 1
	mixLen  = 16
	mixMask = mixLen - 1
)

// A mask must never wrap a slot: this fails to compile if MaxW history
// depths no longer fit after the fixed slots.
const _ = uint(srcLen - srcHist - MaxW)

// compileFastKernels builds the compiled form of a feature set: the
// per-feature fastKernels (bases matching the flat weight array layout),
// the distinct history ring offsets (W-1 for each depth used) backing
// source slots srcHist+j, and the distinct index widths of the mixed
// kernels, for which predict folds the PC mix.
func compileFastKernels(features []Feature) (ks []fastKernel, histOffs []uint32, mixBits []uint8) {
	ks = make([]fastKernel, len(features))
	depthSlot := make(map[uint32]uint8)
	base := 0
	for i, f := range features {
		bits := uint8(f.IndexBits())
		k := fastKernel{base: uint32(base)}
		if f.X {
			k.mix = bits
			if !slices.Contains(mixBits, bits) {
				mixBits = append(mixBits, bits)
			}
		}
		switch f.Kind {
		case KindPC:
			k.src = srcPC
			if f.W > 0 {
				off := uint32(f.W - 1)
				slot, ok := depthSlot[off]
				if !ok {
					slot = srcHist + uint8(len(histOffs))
					depthSlot[off] = slot
					histOffs = append(histOffs, off)
				}
				k.src = slot
			}
			k.shift, k.wmask = uint8(f.B), widthMask(f.B, f.E)
		case KindAddress:
			k.src = srcAddr
			k.shift, k.wmask = uint8(f.B), widthMask(f.B, f.E)
		case KindOffset:
			// The clamped range lies inside the block offset, so reading
			// the full address with it equals reading Addr&(BlockSize-1).
			b, e := f.offsetRange()
			k.src = srcAddr
			k.shift, k.wmask = uint8(b), widthMask(b, e)
		case KindBias:
			k.src = srcZero
		case KindBurst:
			k.src, k.wmask = srcBurst, 1
		case KindInsert:
			k.src, k.wmask = srcInsert, 1
		case KindLastMiss:
			k.src, k.wmask = srcLastMiss, 1
		}
		// Only pc and address ranges can be wider than their index, and
		// their index is 8 bits.
		k.fold = k.wmask>>bits != 0
		ks[i] = k
		base += f.TableSize()
	}
	return ks, histOffs, mixBits
}
