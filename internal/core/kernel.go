package core

// Compiled feature kernels. Feature.Index is the readable reference
// implementation: on every access it re-derives the table width, re-clamps
// the offset bit range, and switches on the feature kind. None of that
// depends on the access, so NewPredictor compiles each feature once into a
// fastKernel — operands resolved, offset range clamped, fold width fixed,
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
//	raw = (srcs[src] >> shift) & wmask; raw ^= pcMix & xmask
//
// over a per-prediction source vector: slot 0 is the constant 0 (bias),
// then the PC, the address (offset features read it with a pre-clamped
// shift/mask, which is equivalent because offsetRange keeps the bit range
// inside the block offset), the three boolean raws, and one slot per
// DISTINCT pc-history depth used by the feature set, materialized from the
// ring once per prediction instead of once per feature. The xor-mix is a
// mask select (xmask is all-ones when the feature's X parameter is set),
// so the loop body carries no data-dependent branches except the shared
// fold test.
type fastKernel struct {
	src   uint8  // source-vector slot
	shift uint8  // bit-range start
	bits  uint8  // fold width, == Feature.IndexBits()
	fold  uint8  // fold dispatch: foldNone, fold88, or foldGen
	wmask uint64 // bit-range width mask applied after the shift
	xmask uint64 // all-ones to mix in PC>>2 (the X parameter), else 0
	mask  uint32 // table index mask, TableSize-1
	base  uint32 // table offset in the predictor's flat weight array
}

// fold dispatch codes. The hot loop's fold branch tests k.fold, which is
// fixed per kernel, so the branch pattern repeats identically on every
// prediction and predicts perfectly — unlike testing raw>>bits, whose
// outcome varies with the access. foldNone kernels prove statically that
// the raw value fits the table (range width <= index bits and no PC mix);
// fold88 kernels run the three-shift fold8 unconditionally, which is an
// identity when the value already fits; foldGen kernels keep the
// data-dependent foldTo as a last resort.
const (
	foldNone uint8 = iota
	fold88
	foldGen
)

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

// compileFastKernels builds the compiled form of a feature set: the
// per-feature fastKernels (bases matching the flat weight array layout)
// and the distinct history ring offsets (W-1 for each depth used) backing
// source slots srcHist+j.
func compileFastKernels(features []Feature) (ks []fastKernel, histOffs []uint32) {
	ks = make([]fastKernel, len(features))
	depthSlot := make(map[uint32]uint8)
	base := 0
	for i, f := range features {
		k := fastKernel{
			bits: uint8(f.IndexBits()),
			mask: uint32(f.TableSize() - 1),
			base: uint32(base),
		}
		if f.X {
			k.xmask = ^uint64(0)
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
		switch {
		case k.xmask == 0 && k.wmask>>k.bits == 0:
			k.fold = foldNone
		case k.bits == 8:
			k.fold = fold88
		default:
			k.fold = foldGen
		}
		ks[i] = k
		base += f.TableSize()
	}
	return ks, histOffs
}

// Bit-parallel (SWAR) confidence summation. A plain loop would accumulate
// the per-feature int8 weights through a loop-carried scalar add — each
// `sum += int(weights[...])` waiting on the previous one. The hot path
// instead gathers the weights into a staging vector of uint64 lane words,
// eight biased bytes per word, and reduces the whole vector with a handful
// of word-wide adds at the end, so the gathers are independent loads and
// the dependent chain is O(words) instead of O(features).
//
// Sign handling: a lane byte holds the weight OFFSET BY +128
// (uint8(w)^0x80 == w+128 for any int8 w), so bytes are non-negative and
// plain binary addition inside a word cannot borrow across lane
// boundaries. The true signed sum is the byte sum minus 128*numFeatures.
// Unused bytes in the last word stay zero and are cancelled by biasing
// only the features actually gathered.

// laneWords is the staging-vector capacity in uint64 words: one byte lane
// per feature, for the largest feature set NewPredictor accepts.
const laneWords = MaxFeatures / 8

// weightBias is the per-byte offset that maps int8 weights onto
// non-negative lane bytes.
const weightBias = 128

// sumLanes adds every byte of the staging vector's first `words` words.
// Each word's eight bytes are first widened pairwise into four 16-bit
// lanes (two bytes each, max 2*255 — no overflow), the 16-bit lanes are
// accumulated across words (max 8 words * 510 = 4080 per lane), and the
// final fold collapses 4x16 bits to one integer.
func sumLanes(lanes *[laneWords]uint64, words int) int {
	const lo8 = 0x00FF00FF00FF00FF
	const lo16 = 0x0000FFFF0000FFFF
	var acc uint64 // four 16-bit sub-sums
	for _, v := range lanes[:words] {
		acc += (v & lo8) + ((v >> 8) & lo8)
	}
	acc = (acc & lo16) + ((acc >> 16) & lo16) // two 32-bit sub-sums
	return int((acc + (acc >> 32)) & 0xFFFFFFFF)
}
