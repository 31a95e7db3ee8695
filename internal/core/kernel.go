package core

// Compiled feature kernels. Feature.Index is the readable reference
// implementation: on every access it re-derives the table width, re-clamps
// the offset bit range, and switches on the feature kind. None of that
// depends on the access, so NewPredictor compiles the feature set once
// into rows of kernels — operands resolved, offset range clamped, fold
// decided, and each feature's weight table located by offset into one
// contiguous array — and the per-access path just executes them. The
// kernel tests pin the compiled indices and confidence to Feature.Index
// and a plain sum.

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

// fold6 xor-folds a 64-bit value to 6 bits the same way: each shift is a
// multiple of 6, and the four of them fold sixteen 6-bit chunks, which
// cover the 64 bits.
func fold6(v uint64) uint32 {
	v ^= v >> 48
	v ^= v >> 24
	v ^= v >> 12
	v ^= v >> 6
	return uint32(v & 0x3f)
}

// rowLanes is the number of kernels in a kernelRow: one per 64-bit lane
// of a 512-bit vector.
const rowLanes = 8

// kernelRow is eight features with every access-independent decision
// taken, laid out lane-major: lane j of each array belongs to one feature,
// so the vector gather (gather_amd64.s) loads an operand of all eight with
// one instruction, and the scalar gather reads lane j of each. Feature i
// is lane i%8 of row i/8. Every feature is the same straight-line
// expression
//
//	raw = (srcs[src] >> shift) & wmask
//	ix  = fold8(raw) in a folding lane, else raw
//	ix ^= mix[mix]
//	sum += weights[base+ix]
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
// predict folds PC>>2 into the mix vector at the two index widths a mixed
// feature can have (6 for offset, 8 for the rest), and a mixed kernel
// xors in the entry for its own width (its IndexBits). Unmixed kernels
// read slot 0, which stays 0. What is left to fold per kernel is the raw
// bit range, and that only when it is wider than the index: a pc or
// address range wider than 8 bits, which fold8 folds with a fixed three
// shifts. Every other range already fits its table, so the index needs no
// mask.
//
// The lanes of the last row past the feature count are clear in valid and
// zero everywhere else, so they read slot 0 and table offset 0.
type kernelRow struct {
	shift [rowLanes]uint64 // bit-range start
	wmask [rowLanes]uint64 // bit-range width mask applied after the shift
	base  [rowLanes]uint64 // table offset in the predictor's flat weight array
	src   [rowLanes]uint32 // source-vector slot
	mix   [rowLanes]uint32 // mix-vector slot: IndexBits when X is set, else 0
	fold  uint8            // lanes whose range is wider than their 8-bit index
	valid uint8            // lanes that hold a feature
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
// (at most MaxW); the mix vector one entry per index width, 0..8. The
// vector gather reads the whole mix vector as one 16-dword register.
const (
	srcLen  = 32
	srcMask = srcLen - 1
	mixLen  = 16
	mixMask = mixLen - 1
)

// A mask must never wrap a slot: this fails to compile if MaxW history
// depths no longer fit after the fixed slots.
const _ = uint(srcLen - srcHist - MaxW)

// compileRows builds the compiled form of a feature set: the rows of
// kernels (bases matching the flat weight array layout) and the distinct
// history ring offsets (W-1 for each depth used) backing source slots
// srcHist+j.
func compileRows(features []Feature) (rows []kernelRow, histOffs []uint32) {
	rows = make([]kernelRow, (len(features)+rowLanes-1)/rowLanes)
	depthSlot := make(map[uint32]uint32)
	base := 0
	for i, f := range features {
		r, j := &rows[i/rowLanes], i%rowLanes
		bits := f.IndexBits()
		var (
			src          uint32
			shift, wmask uint64
		)
		switch f.Kind {
		case KindPC:
			src = srcPC
			if f.W > 0 {
				off := uint32(f.W - 1)
				slot, ok := depthSlot[off]
				if !ok {
					slot = srcHist + uint32(len(histOffs))
					depthSlot[off] = slot
					histOffs = append(histOffs, off)
				}
				src = slot
			}
			shift, wmask = uint64(f.B), widthMask(f.B, f.E)
		case KindAddress:
			src = srcAddr
			shift, wmask = uint64(f.B), widthMask(f.B, f.E)
		case KindOffset:
			// The clamped range lies inside the block offset, so reading
			// the full address with it equals reading Addr&(BlockSize-1).
			b, e := f.offsetRange()
			src = srcAddr
			shift, wmask = uint64(b), widthMask(b, e)
		case KindBias:
			src = srcZero
		case KindBurst:
			src, wmask = srcBurst, 1
		case KindInsert:
			src, wmask = srcInsert, 1
		case KindLastMiss:
			src, wmask = srcLastMiss, 1
		}
		r.src[j], r.shift[j], r.wmask[j] = src, shift, wmask
		r.base[j] = uint64(base)
		if f.X {
			r.mix[j] = uint32(bits)
		}
		// Only pc and address ranges can be wider than their index, and
		// their index is 8 bits.
		if wmask>>bits != 0 {
			r.fold |= 1 << j
		}
		r.valid |= 1 << j
		base += f.TableSize()
	}
	return rows, histOffs
}
