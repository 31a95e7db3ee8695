package verify

import (
	"fmt"

	"mpppb/internal/cache"
	"mpppb/internal/policy"
)

// baseOracle provides no-op hook defaults for embedding.
type baseOracle struct{}

func (baseOracle) preHit(int, int, cache.Access)           {}
func (baseOracle) postHit(int, int, cache.Access)          {}
func (baseOracle) preVictim(int, cache.Access)             {}
func (baseOracle) postVictim(int, cache.Access, int, bool) {}
func (baseOracle) preFill(int, int, cache.Access)          {}
func (baseOracle) postFill(int, int, cache.Access)         {}
func (baseOracle) sweep()                                  {}

// ---------------------------------------------------------------------------
// True LRU

// ranked is what the LRU oracle reads of the ranks it checks: a
// RankedPolicy's, or a cache.PrivateLevel's own.
type ranked interface {
	Rank(set, way int) int
}

// lruOracle shadows a true-LRU policy with the obvious model: per set, an
// explicit MRU-first list of ways. Position in the list is the recency rank.
type lruOracle struct {
	baseOracle
	k     *Checker
	p     ranked
	ways  int
	stack [][]int // per set, way indices MRU-first
	exp   int     // expected victim recorded by preVictim
}

func newLRUOracle(k *Checker, p ranked, sets, ways int) *lruOracle {
	o := &lruOracle{k: k, p: p, ways: ways, stack: make([][]int, sets)}
	for s := range o.stack {
		// Production LRU starts way i at rank i.
		o.stack[s] = make([]int, ways)
		for w := 0; w < ways; w++ {
			o.stack[s][w] = w
		}
	}
	return o
}

// touch moves a way to the MRU position.
func (o *lruOracle) touch(set, way int) {
	s := o.stack[set]
	for i, w := range s {
		if w == way {
			copy(s[1:i+1], s[:i])
			s[0] = way
			return
		}
	}
	panic(fmt.Sprintf("verify: way %d missing from reference LRU stack of set %d", way, set))
}

// checkSet verifies the production ranks of one set are exactly the
// reference stack: a permutation with each way at its reference position.
func (o *lruOracle) checkSet(set int) {
	for pos, way := range o.stack[set] {
		if got := o.p.Rank(set, way); got != pos {
			o.k.failf(o.dump(set), "lru: set %d way %d at rank %d, reference rank %d",
				set, way, got, pos)
			return
		}
	}
}

func (o *lruOracle) dump(set int) string {
	return fmt.Sprintf("  reference lru stack (mru first): %v", o.stack[set])
}

func (o *lruOracle) postHit(set, way int, _ cache.Access) {
	o.touch(set, way)
	o.checkSet(set)
}

func (o *lruOracle) preVictim(set int, _ cache.Access) {
	o.exp = o.stack[set][o.ways-1]
}

func (o *lruOracle) postVictim(set int, _ cache.Access, way int, bypass bool) {
	if bypass {
		o.k.failf("", "lru: policy bypassed; true LRU never bypasses")
		return
	}
	if way != o.exp {
		o.k.failf(o.dump(set), "lru: set %d victim way %d, reference way %d", set, way, o.exp)
	}
}

func (o *lruOracle) postFill(set, way int, _ cache.Access) {
	o.touch(set, way)
	o.checkSet(set)
}

func (o *lruOracle) sweep() {
	for set := range o.stack {
		// Rank permutation invariant, then exact stack equality.
		seen := make([]bool, o.ways)
		for w := 0; w < o.ways; w++ {
			r := o.p.Rank(set, w)
			if r < 0 || r >= o.ways || seen[r] {
				o.k.failf(o.dump(set), "lru: set %d ranks are not a permutation (way %d rank %d)",
					set, w, r)
				return
			}
			seen[r] = true
		}
		o.checkSet(set)
	}
}

// ---------------------------------------------------------------------------
// SRRIP

// srripOracle shadows SRRIP with a plain per-block RRPV array and the
// textbook scan-and-age victim search.
type srripOracle struct {
	baseOracle
	k    *Checker
	p    *policy.SRRIP
	ways int
	rrpv [][]uint8
	exp  int
}

func newSRRIPOracle(k *Checker, p *policy.SRRIP, sets, ways int) *srripOracle {
	o := &srripOracle{k: k, p: p, ways: ways, rrpv: make([][]uint8, sets)}
	for s := range o.rrpv {
		o.rrpv[s] = make([]uint8, ways)
		for w := range o.rrpv[s] {
			o.rrpv[s][w] = policy.RRPVMax
		}
	}
	return o
}

func (o *srripOracle) dump(set int) string {
	return fmt.Sprintf("  reference rrpv: %v", o.rrpv[set])
}

func (o *srripOracle) checkSet(set int) {
	for w := 0; w < o.ways; w++ {
		if got := o.p.RRPV(set, w); got != o.rrpv[set][w] {
			o.k.failf(o.dump(set), "srrip: set %d way %d rrpv %d, reference %d",
				set, w, got, o.rrpv[set][w])
			return
		}
	}
}

func (o *srripOracle) postHit(set, way int, _ cache.Access) {
	o.rrpv[set][way] = policy.RRPVImmediate
	o.checkSet(set)
}

func (o *srripOracle) preVictim(set int, _ cache.Access) {
	for {
		for w := 0; w < o.ways; w++ {
			if o.rrpv[set][w] == policy.RRPVMax {
				o.exp = w
				return
			}
		}
		for w := 0; w < o.ways; w++ {
			o.rrpv[set][w]++
		}
	}
}

func (o *srripOracle) postVictim(set int, _ cache.Access, way int, bypass bool) {
	if bypass {
		o.k.failf("", "srrip: policy bypassed; SRRIP never bypasses")
		return
	}
	if way != o.exp {
		o.k.failf(o.dump(set), "srrip: set %d victim way %d, reference way %d", set, way, o.exp)
		return
	}
	o.checkSet(set)
}

func (o *srripOracle) postFill(set, way int, _ cache.Access) {
	o.rrpv[set][way] = o.p.InsertRRPV
	o.checkSet(set)
}

func (o *srripOracle) sweep() {
	for set := range o.rrpv {
		for w := 0; w < o.ways; w++ {
			if got := o.p.RRPV(set, w); got > policy.RRPVMax {
				o.k.failf("", "srrip: set %d way %d rrpv %d out of range", set, w, got)
				return
			}
		}
		o.checkSet(set)
	}
}

// ---------------------------------------------------------------------------
// Tree PLRU / MDPP substrate

// refTree is a naive PLRU tree: one byte per node, heap order, nodes
// 1..ways-1 holding the direction bit (1 = victim in right subtree). It
// re-derives the path arithmetic from scratch — walking parent to child by
// the way's bits — independently of the production bit packing.
type refTree struct {
	levels int
	ways   int
	nodes  [][]uint8 // per set, 1<<levels entries (index 0 unused)
}

func newRefTree(sets, ways int) *refTree {
	levels := 0
	for 1<<levels < ways {
		levels++
	}
	t := &refTree{levels: levels, ways: ways, nodes: make([][]uint8, sets)}
	for s := range t.nodes {
		t.nodes[s] = make([]uint8, ways)
	}
	return t
}

// touch points the tree away from `way` at every level the position leaves
// unprotected: level l (0 = root) is touched iff bit (levels-1-l) of pos is
// zero. Position 0 touches every level — the classic full PLRU promotion.
func (t *refTree) touch(set, way, pos int) {
	n := 1
	for l := 0; l < t.levels; l++ {
		dir := (way >> (t.levels - 1 - l)) & 1
		if (pos>>(t.levels-1-l))&1 == 0 {
			t.nodes[set][n] = uint8(1 - dir) // point at the other subtree
		}
		n = 2*n + dir
	}
}

// victim walks the direction bits from the root.
func (t *refTree) victim(set int) int {
	n := 1
	for l := 0; l < t.levels; l++ {
		n = 2*n + int(t.nodes[set][n])
	}
	return n - t.ways
}

// packed renders the set's nodes in the production bit packing (node i at
// bit i) for comparison against TreePLRU.Bits.
func (t *refTree) packed(set int) uint32 {
	var b uint32
	for i := 1; i < t.ways; i++ {
		if t.nodes[set][i] != 0 {
			b |= 1 << uint(i)
		}
	}
	return b
}

func (t *refTree) dump(set int) string {
	return fmt.Sprintf("  reference tree bits: %#x", t.packed(set))
}

// plruOracle shadows tree PLRU: every hit and fill is a full touch.
type plruOracle struct {
	baseOracle
	k    *Checker
	p    *policy.TreePLRU
	tree *refTree
	exp  int
}

func newPLRUOracle(k *Checker, p *policy.TreePLRU, sets, ways int) *plruOracle {
	return &plruOracle{k: k, p: p, tree: newRefTree(sets, ways)}
}

func (o *plruOracle) checkSet(set int) {
	if got, want := o.p.Bits(set), o.tree.packed(set); got != want {
		o.k.failf(o.tree.dump(set), "plru: set %d bits %#x, reference %#x", set, got, want)
	}
}

func (o *plruOracle) postHit(set, way int, _ cache.Access) {
	o.tree.touch(set, way, 0)
	o.checkSet(set)
}

func (o *plruOracle) preVictim(set int, _ cache.Access) { o.exp = o.tree.victim(set) }

func (o *plruOracle) postVictim(set int, _ cache.Access, way int, bypass bool) {
	if bypass {
		o.k.failf("", "plru: policy bypassed; PLRU never bypasses")
		return
	}
	if way != o.exp {
		o.k.failf(o.tree.dump(set), "plru: set %d victim way %d, reference way %d", set, way, o.exp)
	}
}

func (o *plruOracle) postFill(set, way int, _ cache.Access) {
	o.tree.touch(set, way, 0)
	o.checkSet(set)
}

func (o *plruOracle) sweep() {
	for set := range o.tree.nodes {
		o.checkSet(set)
	}
}

// mdppOracle shadows standalone static MDPP: placement and promotion touch
// only the levels their position leaves unprotected.
type mdppOracle struct {
	baseOracle
	k    *Checker
	p    *policy.MDPP
	tree *refTree
	exp  int
}

func newMDPPOracle(k *Checker, p *policy.MDPP, sets, ways int) *mdppOracle {
	return &mdppOracle{k: k, p: p, tree: newRefTree(sets, ways)}
}

func (o *mdppOracle) checkSet(set int) {
	if got, want := o.p.Tree().Bits(set), o.tree.packed(set); got != want {
		o.k.failf(o.tree.dump(set), "mdpp: set %d bits %#x, reference %#x", set, got, want)
	}
}

func (o *mdppOracle) postHit(set, way int, _ cache.Access) {
	o.tree.touch(set, way, o.p.PromotePos)
	o.checkSet(set)
}

func (o *mdppOracle) preVictim(set int, _ cache.Access) { o.exp = o.tree.victim(set) }

func (o *mdppOracle) postVictim(set int, _ cache.Access, way int, bypass bool) {
	if bypass {
		o.k.failf("", "mdpp: policy bypassed; MDPP never bypasses")
		return
	}
	if way != o.exp {
		o.k.failf(o.tree.dump(set), "mdpp: set %d victim way %d, reference way %d", set, way, o.exp)
	}
}

func (o *mdppOracle) postFill(set, way int, _ cache.Access) {
	o.tree.touch(set, way, o.p.PlacePos)
	o.checkSet(set)
}

func (o *mdppOracle) sweep() {
	for set := range o.tree.nodes {
		o.checkSet(set)
	}
}
