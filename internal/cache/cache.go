// Package cache implements the set-associative cache models and the
// three-level hierarchy used by the simulator, mirroring the methodology of
// Section 4.1 of the paper: 32KB 8-way L1 data cache, 256KB 8-way unified
// L2, and a 16-way last-level cache of 2MB (single-thread) or 8MB
// (multi-programmed), with 64-byte blocks throughout and a 200-cycle DRAM
// latency.
//
// Only the LLC's replacement policy varies. A Cache, the LLC, delegates
// its replacement decisions to a ReplacementPolicy, which is where LRU,
// SRRIP, MDPP, the baselines (SDBP, Perceptron, Hawkeye) and the paper's
// MPPPB all plug in. Policies see every lookup outcome via
// Hit/Victim/Fill/Evict callbacks; Victim may additionally request bypass,
// which the paper's techniques use for dead-on-arrival blocks. L1 and L2
// are always true LRU and never bypass, so each is a PrivateLevel
// (private.go), which ranks its frames itself with no policy interface.
package cache

import (
	"fmt"

	"mpppb/internal/trace"
)

// Access is a single reference presented to a cache.
type Access struct {
	// PC is the address of the memory instruction responsible (the fake
	// trace.PrefetchPC for hardware prefetches).
	PC uint64
	// Addr is the byte address referenced.
	Addr uint64
	// Type is the access type (load, store, prefetch, writeback).
	Type trace.AccessType
	// Core identifies the requesting core in multi-core simulations.
	Core int
	// Now is the current cycle, used for prefetch-timeliness modelling
	// (zero in untimed runs).
	Now uint64
}

// Block returns the block address of the access.
func (a Access) Block() uint64 { return a.Addr >> trace.BlockBits }

// Offset returns the byte offset of the access within its block.
func (a Access) Offset() uint64 { return a.Addr & (trace.BlockSize - 1) }

// IsDemand reports whether the access is a demand load or store.
func (a Access) IsDemand() bool { return a.Type == trace.Load || a.Type == trace.Store }

// Frame storage is struct-of-arrays: the per-frame fields live in parallel
// slices (addrs, flags, and a Cache's readyAts), row-major by set, rather
// than in an array of frame structs. The way scan in Lookup/access then
// streams over a contiguous lane of 8-byte block addresses — ways*8 bytes
// per set, two cache lines for a 16-way LLC — instead of striding 24-byte
// structs, and the three booleans pack into one byte per frame.
//
// Invalid frames additionally hold the sentinel noBlock in the address
// lane, so a tag-lane comparison can never match a stale address; flags
// remain the authority on validity.
//
// A fill takes the lowest invalid way of its set, and only Invalidate and
// Reset make a frame invalid, so a set whose frames are all valid stays
// that way through a whole simulation. Each set counts its invalid frames
// (holes), and a miss searches its set for one only while the set's count
// is positive.

// noBlock is the address-lane value of an invalid frame. Real block
// addresses are byte addresses shifted right by trace.BlockBits, so the
// all-ones value is unreachable.
const noBlock = ^uint64(0)

// Per-frame flag bits, packed one byte per frame.
const (
	frameValid      uint8 = 1 << 0
	frameDirty      uint8 = 1 << 1
	framePrefetched uint8 = 1 << 2
)

// ReplacementPolicy receives lookup outcomes and chooses victims for one
// cache. Implementations are constructed for a specific geometry (number of
// sets and ways) and must only be attached to a cache with that geometry.
type ReplacementPolicy interface {
	// Name identifies the policy, e.g. "lru" or "mpppb-mdpp".
	Name() string
	// Hit is invoked when a lookup hits way `way` of set `set`.
	Hit(set, way int, a Access)
	// Victim chooses the way to evict for an incoming fill into `set`, or
	// returns bypass=true to not cache the block at all. It is only
	// consulted when the set has no invalid frame. The returned way is
	// ignored when bypass is true.
	Victim(set int, a Access) (way int, bypass bool)
	// Fill is invoked after the incoming block is installed in (set, way),
	// including fills into previously-invalid frames.
	Fill(set, way int, a Access)
	// Evict is invoked when the valid block at (set, way) is about to be
	// replaced or invalidated. blockAddr is the full block address of the
	// victim.
	Evict(set, way int, blockAddr uint64)
}

// Stats aggregates per-cache event counts. Demand statistics exclude
// prefetch and writeback traffic; MPKI in the paper is demand misses per
// kilo-instruction.
type Stats struct {
	Accesses       uint64 // all lookups
	Hits           uint64
	Misses         uint64
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64
	// Prefetch statistics cover hardware-prefetch lookups; the paper-style
	// MPKI metric counts demand and prefetch misses together.
	PrefetchAccesses uint64
	PrefetchMisses   uint64
	PrefetchFills    uint64 // blocks installed by prefetches
	Bypasses         uint64 // fills the policy chose not to cache
	Evictions        uint64 // valid blocks replaced
	Writebacks       uint64 // dirty blocks evicted
}

// Result describes the outcome of one cache access.
type Result struct {
	// Hit reports whether the lookup hit.
	Hit bool
	// Bypassed reports whether the policy declined to cache a missing block.
	Bypassed bool
	// Set and Way locate the block touched or filled (meaningless when
	// Bypassed).
	Set, Way int
	// EvictedValid reports whether a valid block was evicted by the fill.
	EvictedValid bool
	// EvictedAddr is the block address of the eviction victim.
	EvictedAddr uint64
	// EvictedDirty reports whether the victim was dirty (needs writeback).
	EvictedDirty bool
	// ReadyAt is the hit block's data-arrival cycle (prefetch timeliness);
	// zero when the data is already present.
	ReadyAt uint64
}

// outcome is a Result in the form the access path returns internally. The
// compiler keeps a struct in registers only up to four fields and 32
// bytes; a Result passed back through a call is stored to the stack field
// by field and reloaded as whole words, which stalls on store forwarding.
type outcome struct {
	set, way int
	// at is the hit block's ReadyAt, or the evicted block's address.
	at    uint64
	flags uint8 // outHit | outBypassed | outEvicted | outDirty
}

const (
	outHit uint8 = 1 << iota
	outBypassed
	outEvicted
	outDirty // only with outEvicted
)

func (o outcome) hit() bool      { return o.flags&outHit != 0 }
func (o outcome) bypassed() bool { return o.flags&outBypassed != 0 }

// dirtyVictim returns the address of an evicted dirty block, which must
// be written back.
func (o outcome) dirtyVictim() (uint64, bool) { return o.at, o.flags&outDirty != 0 }

func (o outcome) result() Result {
	var readyAt, evictedAddr uint64
	if o.hit() {
		readyAt = o.at
	} else {
		evictedAddr = o.at
	}
	return Result{Hit: o.hit(), Bypassed: o.bypassed(), Set: o.set, Way: o.way,
		EvictedValid: o.flags&outEvicted != 0, EvictedAddr: evictedAddr,
		EvictedDirty: o.flags&outDirty != 0, ReadyAt: readyAt}
}

// Observer receives every completed cache operation. The verification
// layer attaches one to run a naive reference cache model in lockstep
// with the production array; when none is attached the cost is a single
// nil check per access.
type Observer interface {
	// OnAccess is invoked after an Access completes, with the final result.
	OnAccess(a Access, r Result)
	// OnInvalidate is invoked after an Invalidate, whether or not the
	// block was present.
	OnInvalidate(blockAddr uint64, present bool)
}

// frames is the frame storage a Cache and a PrivateLevel share: the tag
// lane, the flags and the hole counts, sets*ways frames row-major by set,
// with the geometry that indexes them.
type frames struct {
	name    string
	sets    int
	ways    int
	setMask uint64
	addrs   []uint64 // block-address (tag) lane; noBlock when invalid
	flags   []uint8  // frameValid | frameDirty | framePrefetched
	holes   []uint8  // invalid frames per set
}

// newFrames builds the storage of a level of the given geometry, every
// frame invalid. It panics unless the sets are a positive power of two
// and the ways number 1 to 255.
func newFrames(name string, sets, ways int) frames {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: non-positive geometry %dx%d", name, sets, ways))
	}
	if ways > 255 {
		panic(fmt.Sprintf("cache %s: %d ways exceed the limit of 255", name, ways))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets %d is not a power of two", name, sets))
	}
	f := frames{
		name:    name,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		addrs:   make([]uint64, sets*ways),
		flags:   make([]uint8, sets*ways),
		holes:   make([]uint8, sets),
	}
	f.clear()
	return f
}

// setsOf returns the sets of a sizeBytes-byte level of the given ways.
func setsOf(name string, sizeBytes, ways int) int {
	blocks := sizeBytes / trace.BlockSize
	if ways <= 0 || blocks%ways != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible into %d ways", name, sizeBytes, ways))
	}
	return blocks / ways
}

// clear invalidates every frame.
func (f *frames) clear() {
	for i := range f.addrs {
		f.addrs[i] = noBlock
		f.flags[i] = 0
	}
	for set := range f.holes {
		f.holes[set] = uint8(f.ways)
	}
}

// hole returns the lowest invalid way of the set whose first frame is
// base and counts it filled, or returns -1 when the set has none. The
// first noBlock in the tag lane is the lowest invalid way, and the set's
// hole count says whether there is one.
func (f *frames) hole(set, base int) int {
	if f.holes[set] == 0 {
		return -1
	}
	for w, fa := range f.addrs[base : base+f.ways] {
		if fa == noBlock {
			f.holes[set]--
			return w
		}
	}
	return -1
}

// Cache is one level of set-associative cache whose replacement a policy
// decides: the LLC.
type Cache struct {
	frames
	readyAts []uint64 // data-arrival cycles, sets*ways
	policy   ReplacementPolicy
	obs      Observer

	// Stats accumulates event counts; callers may read or reset it
	// between measurement phases.
	Stats Stats
}

// New constructs a cache with the given geometry. sizeBytes must be
// sets*ways*trace.BlockSize; the constructor takes sets and ways directly
// to keep geometry errors loud. The number of sets must be a power of two,
// and a set holds at most 255 ways.
func New(name string, sets, ways int, policy ReplacementPolicy) *Cache {
	c := &Cache{frames: newFrames(name, sets, ways), policy: policy}
	c.readyAts = make([]uint64, sets*ways)
	return c
}

// NewBySize constructs a cache from a total size in bytes and associativity.
func NewBySize(name string, sizeBytes, ways int, policy ReplacementPolicy) *Cache {
	return New(name, setsOf(name, sizeBytes, ways), ways, policy)
}

// Name returns the level's identifying name.
func (f *frames) Name() string { return f.name }

// Sets returns the number of sets.
func (f *frames) Sets() int { return f.sets }

// Ways returns the associativity.
func (f *frames) Ways() int { return f.ways }

// SizeBytes returns the total capacity in bytes.
func (f *frames) SizeBytes() int { return f.sets * f.ways * trace.BlockSize }

// Policy returns the attached replacement policy.
func (c *Cache) Policy() ReplacementPolicy { return c.policy }

// SetObserver attaches an observer (nil detaches). Observers see every
// Access and Invalidate after it completes.
func (c *Cache) SetObserver(obs Observer) { c.obs = obs }

// SetPolicy replaces the attached replacement policy. The verification
// layer uses it to interpose a shadow wrapper before the first access;
// swapping mid-run would lose per-block replacement state.
func (c *Cache) SetPolicy(p ReplacementPolicy) { c.policy = p }

// SetIndex returns the set index for a block address.
func (f *frames) SetIndex(blockAddr uint64) int { return int(blockAddr & f.setMask) }

// Lookup probes the level without changing any state. It returns the way
// holding the block, or -1 on a miss.
func (f *frames) Lookup(blockAddr uint64) (set, way int) {
	set = f.SetIndex(blockAddr)
	base := set * f.ways
	// Invalid frames hold noBlock in the tag lane, so a match implies valid.
	for w, a := range f.addrs[base : base+f.ways] {
		if a == blockAddr {
			return set, w
		}
	}
	return set, -1
}

// Contains reports whether the block is present.
func (f *frames) Contains(blockAddr uint64) bool {
	_, way := f.Lookup(blockAddr)
	return way >= 0
}

// BlockAddrAt returns the block address stored in (set, way) and whether
// the frame is valid.
func (f *frames) BlockAddrAt(set, way int) (uint64, bool) {
	i := set*f.ways + way
	if f.flags[i]&frameValid == 0 {
		return 0, false
	}
	return f.addrs[i], true
}

// IsPrefetchedAt reports whether the block in (set, way) was installed by a
// prefetch and has not yet been demand-referenced.
func (f *frames) IsPrefetchedAt(set, way int) bool {
	return f.flags[set*f.ways+way]&framePrefetched != 0
}

// Access performs a full lookup-and-fill. On a miss the block is installed
// (unless the policy bypasses it); the caller is responsible for propagating
// the miss to the next level first if fill data ordering matters (the
// simulator fills bottom-up, so lower levels are accessed before upper
// levels install).
func (c *Cache) Access(a Access) Result { return c.access(a).result() }

// access is Access in its internal form, with the build-tag assertions and
// the observer; the hierarchy calls it directly.
func (c *Cache) access(a Access) outcome {
	o := c.lookupFill(a)
	if verifyAsserts {
		c.assertSetWellFormed(o.set)
	}
	if c.obs != nil {
		c.obs.OnAccess(a, o.result())
	}
	return o
}

// lookupFill is the lookup-and-fill body of Access: one pass over the set
// finds a hit or the frame to fill. It reads the Access fields directly,
// since the value-receiver helpers copy the whole Access.
func (c *Cache) lookupFill(a Access) outcome {
	blockAddr := a.Addr >> trace.BlockBits
	typ := a.Type
	set := int(blockAddr & c.setMask)
	base := set * c.ways

	c.Stats.Accesses++
	demand := typ == trace.Load || typ == trace.Store
	if demand {
		c.Stats.DemandAccesses++
	} else if typ == trace.Prefetch {
		c.Stats.PrefetchAccesses++
	}

	// Probe: one pass over the set's contiguous tag lane. Invalid frames
	// hold noBlock, so a match implies a valid frame.
	for w, fa := range c.addrs[base : base+c.ways] {
		if fa == blockAddr {
			i := base + w
			c.Stats.Hits++
			if demand {
				c.Stats.DemandHits++
				c.flags[i] &^= framePrefetched
			}
			if typ == trace.Store || typ == trace.Writeback {
				c.flags[i] |= frameDirty
			}
			c.policy.Hit(set, w, a)
			return outcome{set: set, way: w, at: c.readyAts[i], flags: outHit}
		}
	}

	// Miss.
	c.Stats.Misses++
	if demand {
		c.Stats.DemandMisses++
	} else if typ == trace.Prefetch {
		c.Stats.PrefetchMisses++
	}

	// Writebacks update-if-present but do not allocate: a dirty victim
	// from the level above that misses here is sent on toward memory.
	// This keeps the demand/prefetch reference stream at this level
	// independent of replacement decisions made here (see DESIGN.md).
	if typ == trace.Writeback {
		return outcome{set: set, flags: outBypassed}
	}

	// Fill the lowest invalid frame, or else replace the policy's victim.
	o := outcome{set: set, way: c.hole(set, base)}
	if o.way < 0 {
		victim, bypass := c.policy.Victim(set, a)
		if bypass {
			c.Stats.Bypasses++
			return outcome{set: set, flags: outBypassed}
		}
		if victim < 0 || victim >= c.ways {
			panic(fmt.Sprintf("cache %s: policy %s returned victim way %d of %d",
				c.name, c.policy.Name(), victim, c.ways))
		}
		i := base + victim
		c.Stats.Evictions++
		o.way, o.at, o.flags = victim, c.addrs[i], outEvicted
		if c.flags[i]&frameDirty != 0 {
			c.Stats.Writebacks++
			o.flags |= outDirty
		}
		c.policy.Evict(set, victim, o.at)
	}

	i := base + o.way
	c.addrs[i] = blockAddr
	c.readyAts[i] = a.Now
	fl := frameValid
	if typ == trace.Store {
		fl |= frameDirty
	}
	if typ == trace.Prefetch {
		fl |= framePrefetched
		c.Stats.PrefetchFills++
	}
	c.flags[i] = fl
	c.policy.Fill(set, o.way, a)
	return o
}

// Invalidate removes a block if present, returning whether it was present
// and dirty. The policy's Evict hook is notified.
func (c *Cache) Invalidate(blockAddr uint64) (present, dirty bool) {
	set, way := c.Lookup(blockAddr)
	if way >= 0 {
		i := set*c.ways + way
		present, dirty = true, c.flags[i]&frameDirty != 0
		c.policy.Evict(set, way, c.addrs[i])
		c.addrs[i] = noBlock
		c.flags[i] = 0
		c.holes[set]++
	}
	if c.obs != nil {
		c.obs.OnInvalidate(blockAddr, present)
	}
	return present, dirty
}

// DumpSet renders the frames of one set for divergence diagnostics.
func (f *frames) DumpSet(set int) string {
	base := set * f.ways
	s := fmt.Sprintf("%s set %d:", f.name, set)
	for w := 0; w < f.ways; w++ {
		i := base + w
		if f.flags[i]&frameValid == 0 {
			s += fmt.Sprintf(" [%d: -]", w)
			continue
		}
		flags := ""
		if f.flags[i]&frameDirty != 0 {
			flags += "D"
		}
		if f.flags[i]&framePrefetched != 0 {
			flags += "P"
		}
		s += fmt.Sprintf(" [%d: %#x %s]", w, f.addrs[i], flags)
	}
	return s
}

// assertSetWellFormed panics if a set holds two valid frames with the same
// block address, an invalid frame whose tag lane is not the noBlock
// sentinel (which would let a stale tag match), or a hole count other than
// its number of invalid frames (too low would let a miss evict instead of
// filling a hole). Compiled in only under the verify build tag.
func (f *frames) assertSetWellFormed(set int) {
	base := set * f.ways
	invalid := 0
	for w := 0; w < f.ways; w++ {
		if f.flags[base+w]&frameValid == 0 {
			if f.addrs[base+w] != noBlock {
				panic(fmt.Sprintf("cache %s: invalid frame %d of set %d holds tag %#x instead of the empty sentinel",
					f.name, w, set, f.addrs[base+w]))
			}
			invalid++
			continue
		}
		for w2 := w + 1; w2 < f.ways; w2++ {
			if f.flags[base+w2]&frameValid != 0 && f.addrs[base+w2] == f.addrs[base+w] {
				panic(fmt.Sprintf("cache %s: duplicate block %#x in ways %d and %d of %s",
					f.name, f.addrs[base+w], w, w2, f.DumpSet(set)))
			}
		}
	}
	if invalid != int(f.holes[set]) {
		panic(fmt.Sprintf("cache %s: set %d has %d invalid frames and a hole count of %d",
			f.name, set, invalid, f.holes[set]))
	}
}

// SetReadyAt records the cycle at which the data for the block in
// (set, way) arrives; accesses before then pay the remaining latency.
func (c *Cache) SetReadyAt(set, way int, cycle uint64) { c.readyAts[set*c.ways+way] = cycle }

// ReadyAt returns the data-arrival cycle for (set, way).
func (c *Cache) ReadyAt(set, way int) uint64 { return c.readyAts[set*c.ways+way] }

// Reset invalidates all blocks and zeroes statistics. The replacement
// policy's state is not reset; construct a fresh policy for a fresh cache.
func (c *Cache) Reset() {
	c.clear()
	clear(c.readyAts)
	c.Stats = Stats{}
}

// ResetStats zeroes the statistics counters, e.g. at the end of warmup.
func (c *Cache) ResetStats() { c.Stats = Stats{} }
