package workload

import (
	"mpppb/internal/trace"
	"mpppb/internal/xrand"
)

// This file implements the archetype kernels benchmarks are assembled
// from. Each constructor returns a *Gen with step/reset wired up. Address
// bases keep kernels (and, in multi-programmed mixes, cores) in disjoint
// regions; PCs are stable per static memory instruction, spaced 4 bytes
// apart within a kernel's PC region, so the predictor's pc features see
// loop structure.

// streamKernel scans a large region sequentially with a given block stride,
// modelling bandwidth-bound SPEC FP codes (lbm, bwaves, leslie3d, ...).
// Blocks are dead on arrival when size exceeds the LLC, which is exactly
// the bypass opportunity the paper exploits. A fraction of iterations also
// write (the result stream).
func streamKernel(name string, seed, base uint64, sizeBlocks, stride uint64, unroll int, writeEvery int, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	var pos uint64
	var iter int
	g.step = func() {
		for u := 0; u < unroll; u++ {
			addr := base + (pos%sizeBlocks)*trace.BlockSize
			g.emit(pcb+uint64(u)*4, addr, false)
			if writeEvery > 0 && iter%writeEvery == 0 {
				g.emit(pcb+uint64(unroll+u)*4, addr+32, true)
			}
			pos += stride
			iter++
		}
	}
	g.reset = func() { pos = 0; iter = 0 }
	return g
}

// loopScanKernel repeatedly walks a fixed working set in address order,
// modelling LLC-thrashing loops (libquantum, sphinx3): with LRU every
// access misses once the working set exceeds the cache, while placement/
// bypass policies can pin a useful fraction. Touches every block once per
// pass, with a second "reuse" touch of a leading subregion to create live
// blocks.
func loopScanKernel(name string, seed, base uint64, sizeBlocks uint64, hotBlocks uint64, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	var pos uint64
	rng := xrand.New(seed)
	g.step = func() {
		addr := base + (pos%sizeBlocks)*trace.BlockSize
		g.emit(pcb, addr, false)
		g.emit(pcb+4, addr+16, false)
		if hotBlocks > 0 {
			// Frequent touches to a small hot region mix live blocks
			// into the thrash stream.
			h := rng.Uint64n(hotBlocks)
			g.emit(pcb+8, base+h*trace.BlockSize+8, rng.Intn(8) == 0)
		}
		pos++
	}
	g.reset = func() { pos = 0; rng.Seed(seed) }
	return g
}

// chaseKernel follows a precomputed random permutation cycle through a node
// table, modelling pointer-chasing codes (mcf, omnetpp): serialized misses
// over a footprint far exceeding the LLC, with hot payload fields giving
// offset/PC features signal.
func chaseKernel(name string, seed, base uint64, nodes int, payloadLoads int, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	const nodeSize = 64 // one block per node
	perm := make([]uint32, nodes)
	build := func() {
		rng := xrand.New(seed)
		for i := range perm {
			perm[i] = uint32(i)
		}
		// Sattolo's algorithm: a single cycle through all nodes.
		for i := nodes - 1; i > 0; i-- {
			j := rng.Intn(i)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	build()
	var cur uint32
	g.step = func() {
		addr := base + uint64(cur)*nodeSize
		g.emit(pcb, addr, false) // next-pointer load
		for p := 0; p < payloadLoads; p++ {
			off := uint64(8 + 8*p)
			g.emit(pcb+4+uint64(p)*4, addr+off, p == payloadLoads-1 && cur%16 == 0)
		}
		cur = perm[cur]
	}
	g.reset = func() { cur = 0 }
	return g
}

// zipfObjectKernel accesses heap objects through two kinds of call sites,
// modelling integer codes with skewed data reuse and heavy field
// dereferencing (gcc, perlbench): hot-path instructions touch a Zipf-
// distributed working subset (reused, cache-friendly), while cold-path
// instructions sweep the whole heap nearly uniformly (dead on arrival).
// The PC <-> reuse correlation this creates is the signal PC-based reuse
// predictors exploit in real programs (Section 2, "Features Correlating
// with Reuse").
func zipfObjectKernel(name string, seed, base uint64, objects int, objSize uint64, fields []uint64, zipfS float64, hotObjects, hotPct, storeEvery, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcHot := pcBase(base, 0)
	pcCold := pcBase(base, 1)
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng, hotObjects, zipfS)
	var iter int
	g.step = func() {
		var obj uint64
		pcb := pcHot
		if rng.Intn(100) < hotPct {
			obj = uint64(z.Draw())
		} else {
			obj = rng.Uint64n(uint64(objects))
			pcb = pcCold
		}
		// Scramble the rank into the address space so hot objects are
		// scattered across sets rather than clustered.
		objAddr := base + (obj*2654435761%uint64(objects))*objSize
		for fi, off := range fields {
			w := storeEvery > 0 && iter%storeEvery == 0 && fi == len(fields)-1
			g.emit(pcb+uint64(fi)*4, objAddr+off, w)
		}
		iter++
	}
	g.reset = func() {
		rng.Seed(seed)
		iter = 0
	}
	return g
}

// hashTableKernel models key-value lookup services (CloudSuite
// data_caching): zipf-selected buckets followed by short chain walks; hot
// buckets live in cache, the long tail is dead.
func hashTableKernel(name string, seed, base uint64, buckets int, chainMax int, zipfS float64, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng, buckets, zipfS)
	const bucketSize = 64
	chainBase := base + uint64(buckets)*bucketSize
	g.step = func() {
		b := uint64(z.Draw())
		bAddr := base + (b*2654435761%uint64(buckets))*bucketSize
		g.emit(pcb, bAddr, false) // bucket head
		chain := 1 + rng.Intn(chainMax)
		for i := 0; i < chain; i++ {
			// Chain nodes are pseudo-randomly placed but stable per
			// (bucket, position).
			h := (b*0x9e3779b9 + uint64(i)*0x85ebca6b) % uint64(buckets*chainMax)
			g.emit(pcb+4, chainBase+h*bucketSize, false)    // node
			g.emit(pcb+8, chainBase+h*bucketSize+24, false) // key
		}
		if rng.Intn(16) == 0 { // occasional value update
			g.emit(pcb+12, bAddr+32, true)
		}
	}
	g.reset = func() { rng.Seed(seed) }
	return g
}

// gatherKernel streams an index array while gathering from a large data
// array (sparse algebra / soplex-like). The index stream has perfect
// spatial locality; the gathers have little.
func gatherKernel(name string, seed, base uint64, indexBlocks uint64, dataBlocks uint64, gathersPerIndex int, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	dataBase := base + indexBlocks*trace.BlockSize
	rng := xrand.New(seed)
	var pos uint64
	g.step = func() {
		g.emit(pcb, base+(pos%indexBlocks)*trace.BlockSize+(pos%8)*8, false)
		for i := 0; i < gathersPerIndex; i++ {
			d := rng.Uint64n(dataBlocks)
			g.emit(pcb+4+uint64(i)*4, dataBase+d*trace.BlockSize+16, false)
		}
		if pos%32 == 0 {
			g.emit(pcb+32, base+(pos%indexBlocks)*trace.BlockSize+56, true)
		}
		pos++
	}
	g.reset = func() { pos = 0; rng.Seed(seed) }
	return g
}

// matrixKernel models collaborative filtering / BLAS-2 style access
// (mlpack-cf): stream one long row repeatedly while gathering column
// vectors indexed by a zipf distribution over items.
func matrixKernel(name string, seed, base uint64, rowBlocks uint64, items int, itemBlocks uint64, zipfS float64, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	itemBase := base + rowBlocks*trace.BlockSize
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng, items, zipfS)
	var pos uint64
	g.step = func() {
		g.emit(pcb, base+(pos%rowBlocks)*trace.BlockSize, false)
		it := uint64(z.Draw())
		iAddr := itemBase + (it*2654435761%uint64(items))*itemBlocks*trace.BlockSize
		for b := uint64(0); b < itemBlocks; b++ {
			g.emit(pcb+4+b*4, iAddr+b*trace.BlockSize, false)
		}
		if pos%8 == 0 {
			g.emit(pcb+28, iAddr+8, true) // update factor
		}
		pos++
	}
	g.reset = func() { pos = 0; rng.Seed(seed) }
	return g
}

// burstWalkKernel performs random walks with short sequential bursts,
// modelling branchy search codes (sat_solver, astar): each step jumps to a
// random block then touches a few consecutive addresses, generating the
// MRU "cache burst" signal the burst feature tracks.
func burstWalkKernel(name string, seed, base uint64, sizeBlocks uint64, burstLen int, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	rng := xrand.New(seed)
	g.step = func() {
		b := rng.Uint64n(sizeBlocks)
		addr := base + b*trace.BlockSize
		n := 1 + rng.Intn(burstLen)
		for i := 0; i < n; i++ {
			g.emit(pcb+uint64(i%4)*4, addr+uint64(i)*8, false)
		}
		if rng.Intn(8) == 0 {
			g.emit(pcb+16, addr+48, true)
		}
	}
	g.reset = func() { rng.Seed(seed) }
	return g
}

// hotColdKernel mixes a small, heavily reused hot region with a cold
// stream, modelling codes whose working set mostly fits the LLC (h264ref,
// hmmer, gobmk): low MPKI, but the cold stream still rewards bypass.
func hotColdKernel(name string, seed, base uint64, hotBlocks, coldBlocks uint64, hotFrac int, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	coldBase := base + hotBlocks*trace.BlockSize
	rng := xrand.New(seed)
	var coldPos uint64
	g.step = func() {
		if rng.Intn(100) < hotFrac {
			h := rng.Uint64n(hotBlocks)
			g.emit(pcb, base+h*trace.BlockSize+(h%8)*8, rng.Intn(16) == 0)
		} else {
			g.emit(pcb+4, coldBase+(coldPos%coldBlocks)*trace.BlockSize, false)
			coldPos++
		}
	}
	g.reset = func() { rng.Seed(seed); coldPos = 0 }
	return g
}

// graphKernel models graph analytics (CloudSuite graph_analytics): a
// sequential frontier scan with per-vertex neighbour gathers whose counts
// follow a zipf-ish degree distribution over a large edge array.
func graphKernel(name string, seed, base uint64, vertices int, edgeBlocks uint64, maxDegree int, nonMemAvg int) *Gen {
	g := newGen(name, nonMemAvg)
	pcb := pcBase(base, 0)
	edgeBase := base + uint64(vertices)*8
	rng := xrand.New(seed)
	var v uint64
	g.step = func() {
		g.emit(pcb, base+(v%uint64(vertices))*8, false) // vertex record
		deg := 1 + rng.Intn(maxDegree)
		for i := 0; i < deg; i++ {
			e := (v*0x9e3779b97f4a7c15 + uint64(i)*0xc2b2ae3d27d4eb4f) % edgeBlocks
			g.emit(pcb+4, edgeBase+e*trace.BlockSize, false)       // edge
			g.emit(pcb+8, base+(e%uint64(vertices))*8, i == deg-1) // neighbour rank update
		}
		v++
	}
	g.reset = func() { rng.Seed(seed); v = 0 }
	return g
}

// phasedKernel alternates between sub-kernels every phaseLen records,
// modelling phase-changing codes (astar, wrf, cactusADM). Sub-generators
// share this generator's buffer through delegation.
func phasedKernel(name string, phaseLen int, parts ...*Gen) *Gen {
	g := newGen(name, 0)
	var emitted int
	var cur int
	var rec trace.Record
	g.step = func() {
		parts[cur].Next(&rec)
		g.buf = append(g.buf, rec)
		emitted++
		if emitted >= phaseLen {
			emitted = 0
			cur = (cur + 1) % len(parts)
		}
	}
	g.reset = func() {
		emitted = 0
		cur = 0
		for _, p := range parts {
			p.Reset()
		}
	}
	return g
}
