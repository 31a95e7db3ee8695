package policy

import (
	"bytes"
	"math/rand"
	"testing"
)

// scalarLRU is the rank-by-rank reference for the byte-lane Touch and
// LeastRecent that LRU takes from cache.Recency: the same rank layout,
// updated and searched one way at a time.
type scalarLRU struct {
	ways  int
	ranks []uint8
}

func (s *scalarLRU) touch(set, way, to int) {
	base := set * s.ways
	from := int(s.ranks[base+way])
	for w := 0; w < s.ways; w++ {
		r := int(s.ranks[base+w])
		if from > to && r >= to && r < from {
			s.ranks[base+w]++
		} else if from < to && r > from && r <= to {
			s.ranks[base+w]--
		}
	}
	s.ranks[base+way] = uint8(to)
}

func (s *scalarLRU) victim(set int) int {
	for w := 0; w < s.ways; w++ {
		if int(s.ranks[set*s.ways+w]) == s.ways-1 {
			return w
		}
	}
	return -1
}

// ranksOf reads every rank of l, set-major.
func ranksOf(l *LRU, sets, ways int) []uint8 {
	ranks := make([]uint8, 0, sets*ways)
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			ranks = append(ranks, uint8(l.Rank(s, w)))
		}
	}
	return ranks
}

// TestLRULanesMatchScalar drives LRU and the scalar reference through the
// same random hits, victim-then-fill misses, DIP/BIP insertions at the LRU
// position and moves to arbitrary ranks. The ways cover every tail length
// around whole words (1-20), the lane limit (128) and the scalar-only
// geometries above it.
func TestLRULanesMatchScalar(t *testing.T) {
	const sets = 3
	var geometries []int
	for w := 1; w <= 20; w++ {
		geometries = append(geometries, w)
	}
	geometries = append(geometries, 64, 127, 128, 129, 255)
	for _, ways := range geometries {
		l := NewLRU(sets, ways)
		ref := &scalarLRU{ways: ways, ranks: ranksOf(l, sets, ways)}
		rng := rand.New(rand.NewSource(int64(ways)))
		for step := 0; step < 2000; step++ {
			set, way := rng.Intn(sets), rng.Intn(ways)
			switch rng.Intn(4) {
			case 0:
				l.Hit(set, way, noAccess)
				ref.touch(set, way, 0)
			case 1:
				v, _ := l.Victim(set, noAccess)
				l.Fill(set, v, noAccess)
				ref.touch(set, ref.victim(set), 0)
			case 2:
				l.Touch(set, way, ways-1)
				ref.touch(set, way, ways-1)
			default:
				to := rng.Intn(ways)
				l.Touch(set, way, to)
				ref.touch(set, way, to)
			}
			if got := ranksOf(l, sets, ways); !bytes.Equal(got, ref.ranks) {
				t.Fatalf("ways %d step %d: ranks %v, scalar %v", ways, step, got, ref.ranks)
			}
			for s := 0; s < sets; s++ {
				if v, _ := l.Victim(s, noAccess); v != ref.victim(s) {
					t.Fatalf("ways %d step %d set %d: victim %d, scalar %d", ways, step, s, v, ref.victim(s))
				}
			}
		}
	}
}
