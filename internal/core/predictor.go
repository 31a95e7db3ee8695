package core

import (
	"fmt"

	"mpppb/internal/cache"
)

// Weight range: "6 bit weights ranging from -32 to +31 provide a good
// trade-off between accuracy and area" (Section 3.4).
const (
	WeightMin = -32
	WeightMax = 31
)

// ConfMin/ConfMax clamp the summed confidence to the sampler's 9-bit signed
// confidence field (Section 3.3).
const (
	ConfMin = -256
	ConfMax = 255
)

// setMeta is the per-LLC-set predictor metadata: the most recently used
// block (burst feature) plus the lastmiss and have-block bits, packed into
// one flags byte. The three fields are always read together, so keeping
// them in one 16-byte record costs one cache line per prediction where
// three parallel slices cost three.
type setMeta struct {
	lastBlock uint64
	flags     uint8
}

// setMeta flag bits.
const (
	setLastMiss  uint8 = 1 << 0
	setHaveBlock uint8 = 1 << 1
)

// Predictor is the multiperspective reuse predictor: one weight table per
// feature, per-core PC history, and per-set metadata feeding the burst and
// lastmiss features.
//
// The hot path is compiled: NewPredictor resolves the features into rows
// of kernels (kernel.go) and lays every weight table out in one contiguous
// array, so a prediction is a flat walk over precomputed operations with
// no per-access parameter derivation and no history copying. On a CPU with
// AVX-512 the walk runs eight kernels to a vector (gatherVector); the
// scalar gather is its reference and the fallback everywhere else.
type Predictor struct {
	features []Feature
	rows     []kernelRow // compiled features, eight to a row, in feature order
	histOffs []uint32    // distinct history ring offsets backing srcs[srcHist+j]
	weights  []int8      // all weight tables, concatenated in feature order
	tables   [][]int8    // per-feature views into weights (training, introspection)
	vector   bool        // predict runs gatherVector, not gather

	// hist[core] is a ring of recent memory-access PCs (not including the
	// access currently being predicted); heads[core] indexes the most
	// recent entry.
	hist  [][histRingLen]uint64
	heads []uint32

	// Per-LLC-set metadata, one record per set so a prediction touches a
	// single cache line of it (predict reads the lastmiss bit, the
	// have-block bit, and the last block address together on every call).
	setMeta []setMeta

	// scratch reused across calls: the per-feature index vector, and the
	// per-prediction source and mix vectors (kernel.go).
	//
	// idx holds the table indices of the most recent prediction. It
	// survives between calls, which is what lets sampler training read it
	// after the prediction, and MPPPB's Victim→Fill memo reuse the whole
	// prediction, confidence and index vector, without recomputing it on
	// the Fill side. Every prediction overwrites it, Confidence's too.
	idx  []uint16
	srcs [srcLen]uint64
	mix  [mixLen]uint32
}

// useVectorGather is whether NewPredictor gives its predictors the vector
// gather. It is what the CPU reports (cpuHasVectorGather); only this
// package's tests clear it, to run the scalar gather where the vector one
// would run.
var useVectorGather = cpuHasVectorGather

// NewPredictor builds predictor state for an LLC with the given number of
// sets, shared by the given number of cores.
func NewPredictor(features []Feature, llcSets, cores int) *Predictor {
	if len(features) == 0 {
		panic("core: empty feature set")
	}
	if len(features) > MaxFeatures {
		panic(fmt.Sprintf("core: %d features exceed the limit of %d", len(features), MaxFeatures))
	}
	if cores <= 0 {
		panic("core: non-positive core count")
	}
	p := &Predictor{
		features: features,
		tables:   make([][]int8, len(features)),
		hist:     make([][histRingLen]uint64, cores),
		heads:    make([]uint32, cores),
		setMeta:  make([]setMeta, llcSets),
		idx:      make([]uint16, len(features)),
		vector:   useVectorGather,
	}
	total := 0
	for _, f := range features {
		if err := f.Validate(); err != nil {
			panic(err)
		}
		total += f.TableSize()
	}
	// The vector gather reads each weight as the low byte of a dword, so
	// the last table's last weight needs three bytes after it.
	p.weights = make([]int8, total, total+3)
	base := 0
	for i, f := range features {
		sz := f.TableSize()
		p.tables[i] = p.weights[base : base+sz : base+sz]
		base += sz
	}
	p.rows, p.histOffs = compileRows(features)
	return p
}

// Features returns the feature set (callers must not modify it).
func (p *Predictor) Features() []Feature { return p.features }

// TotalIndexBits returns the number of bits needed to store one feature-
// index vector in a sampler entry, for area accounting (Section 4.4).
func (p *Predictor) TotalIndexBits() int {
	n := 0
	for _, f := range p.features {
		n += f.IndexBits()
	}
	return n
}

// ring returns the history ring index for an access's core. Out-of-range
// cores fold onto core 0: a predictor sized for fewer cores than a mix
// runs (single-thread params inside a 4-core mix) shares one history. It
// takes the core, not the access, so the hot path copies no Access.
func (p *Predictor) ring(core int) int {
	if core < 0 || core >= len(p.hist) {
		return 0
	}
	return core
}

// predict computes an access's confidence and leaves its index vector in
// p.idx: it fills the source vector from the access, the requesting core's
// history ring, and the set's metadata, folds the PC mix, then runs the
// compiled gather. insert marks misses; set is the LLC set index. It reads
// the access in place: a copy passed by value is stored field by field and
// reloaded whole, which stalls on store forwarding.
func (p *Predictor) predict(a *cache.Access, set int, insert bool) int {
	core := p.ring(a.Core)
	hist, head := &p.hist[core], p.heads[core]
	pc := a.PC
	m := &p.setMeta[set]
	srcs := &p.srcs
	srcs[srcPC] = pc
	srcs[srcAddr] = a.Addr
	srcs[srcBurst] = b2u(!insert && m.flags&setHaveBlock != 0 && m.lastBlock == a.Block())
	srcs[srcInsert] = b2u(insert)
	srcs[srcLastMiss] = b2u(m.flags&setLastMiss != 0)
	for j, off := range p.histOffs {
		srcs[(srcHist+j)&srcMask] = hist[(head+off)&histRingMask]
	}
	p.mixPC(pc)
	if p.vector {
		return p.gatherVector()
	}
	return p.gather()
}

// mixPC folds the X parameter's mix, PC>>2, to the two index widths a
// mixed kernel can have, once per prediction (see kernelRow).
func (p *Predictor) mixPC(pc uint64) {
	p.mix[6] = fold6(pc >> 2)
	p.mix[8] = fold8(pc >> 2)
}

// gather runs the compiled kernels over the filled source and mix vectors:
// per feature, the shift/mask, the fold of a wide range, the PC mix, the
// idx store, and the weight added to the sum. It is the reference for
// gatherVector and the kernel on every CPU without one.
func (p *Predictor) gather() int {
	sum := 0
	for r := range p.rows {
		sum += p.gatherRow(&p.rows[r], p.idx[r*rowLanes:])
	}
	return clampConf(sum)
}

// gatherRow runs one row's kernels, storing their indices in idx (its
// valid lanes, at most rowLanes of them), and returns their weights' sum.
// It is a function of its own so that the row is one register: in gather's
// loop, Go re-adds the row's offset before every field load and spills
// the lane counter.
func (p *Predictor) gatherRow(row *kernelRow, idx []uint16) int {
	weights := p.weights
	fold := row.fold
	sum := 0
	for j := range min(len(idx), rowLanes) {
		// shift <= MaxBit; the &63 spares Go's guard for shifts past 63.
		raw := (p.srcs[row.src[j]&srcMask] >> (row.shift[j] & 63)) & row.wmask[j]
		ix := uint32(raw)
		if fold&1 != 0 {
			ix = fold8(raw)
		}
		fold >>= 1
		ix ^= p.mix[row.mix[j]&mixMask]
		idx[j] = uint16(ix)
		sum += int(weights[row.base[j]+uint64(ix)])
	}
	return sum
}

// b2u converts a bool to its 0/1 raw feature value.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Confidence computes the prediction for an access. Higher values mean
// the block is more confidently predicted dead. It changes no weight,
// history or set metadata, but like every prediction it overwrites the
// index vector (idx) that the sampler trains from and that MPPPB's
// Victim→Fill memo reuses. So a caller may predict between an MPPPB's
// Victim and its Fill only for that same access, which rewrites the
// vector Victim left: verify's compareConf does that, and the ROC probe
// never calls Victim on the MPPPB it wraps, whose Fill then predicts
// afresh.
func (p *Predictor) Confidence(a cache.Access, set int, insert bool) int {
	return p.predict(&a, set, insert)
}

// observe updates per-set and per-core state after an access has been
// predicted and (if sampled) trained. resident reports whether the block
// is in the cache after the access (false for bypasses).
func (p *Predictor) observe(a *cache.Access, set int, miss, resident bool) {
	m := &p.setMeta[set]
	if miss {
		m.flags |= setLastMiss
	} else {
		m.flags &^= setLastMiss
	}
	if resident {
		m.lastBlock = a.Block()
		m.flags |= setHaveBlock
	}
	core := p.ring(a.Core)
	head := (p.heads[core] + histRingLen - 1) & histRingMask
	p.hist[core][head] = a.PC
	p.heads[core] = head
}

// bump adjusts one weight with saturating 6-bit arithmetic.
func (p *Predictor) bump(feature int, index uint16, up bool) {
	w := &p.tables[feature][index]
	if up {
		if *w < WeightMax {
			*w++
		}
	} else if *w > WeightMin {
		*w--
	}
}

func clampConf(v int) int {
	if v < ConfMin {
		return ConfMin
	}
	if v > ConfMax {
		return ConfMax
	}
	return v
}

// ForEachWeight visits every weight, in feature order then index order.
// The verification layer uses it to compare the production tables against
// a lockstep reference and to check saturation bounds.
func (p *Predictor) ForEachWeight(fn func(feature, index int, w int8)) {
	for i, t := range p.tables {
		for ix, w := range t {
			fn(i, ix, w)
		}
	}
}

// checkWeights verifies every weight is within the 6-bit saturation range.
func (p *Predictor) checkWeights() error {
	for i, t := range p.tables {
		for ix, w := range t {
			if w < WeightMin || w > WeightMax {
				return fmt.Errorf("core: weight table %d index %d holds %d outside [%d,%d]",
					i, ix, w, WeightMin, WeightMax)
			}
		}
	}
	return nil
}

// String summarizes the predictor configuration.
func (p *Predictor) String() string {
	return fmt.Sprintf("multiperspective(%d features, %d index bits)", len(p.features), p.TotalIndexBits())
}

// SizeBits estimates the predictor's storage in bits, mirroring the area
// accounting of Section 4.4: the weight tables plus per-set lastmiss bits.
// Sampler storage is accounted by the sampler.
func (p *Predictor) SizeBits() int {
	bits := 0
	for _, t := range p.tables {
		bits += len(t) * 6
	}
	bits += len(p.setMeta) // one lastmiss bit per set
	return bits
}
