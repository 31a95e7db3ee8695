package core

import (
	"testing"

	"mpppb/internal/cache"
	"mpppb/internal/trace"
)

func TestHybridLeaderAssignment(t *testing.T) {
	h := NewHybrid(2048, 16, SingleThreadParams())
	counts := map[int]int{}
	for s := 0; s < 2048; s++ {
		counts[h.duel.Leader(s)]++
	}
	if counts[0] != 32 || counts[1] != 32 {
		t.Fatalf("leader counts %v", counts)
	}
}

// TestHybridPSELVoting pins the hybrid's vote point: demand and prefetch
// victims in an MPPPB leader set vote against MPPPB, in a Hawkeye leader
// set against Hawkeye, and writeback victims do not vote.
func TestHybridPSELVoting(t *testing.T) {
	h := NewHybrid(64, 16, SingleThreadParams())
	// Find an MPPPB leader and a Hawkeye leader set.
	var mLeader, hLeader = -1, -1
	for s := 0; s < 64; s++ {
		switch h.duel.Leader(s) {
		case 0:
			if mLeader < 0 {
				mLeader = s
			}
		case 1:
			if hLeader < 0 {
				hLeader = s
			}
		}
	}
	if mLeader < 0 || hLeader < 0 {
		t.Fatal("no leaders found")
	}
	psel := func() int { return h.duel.Votes().Psel }
	h.Victim(mLeader, cache.Access{PC: 0x400, Addr: 0, Type: trace.Load})
	if psel() != -1 {
		t.Fatalf("MPPPB-leader miss left PSEL at %d, want -1", psel())
	}
	h.Victim(hLeader, cache.Access{PC: 0x400, Addr: 0, Type: trace.Prefetch})
	h.Victim(hLeader, cache.Access{PC: 0x400, Addr: 0, Type: trace.Prefetch})
	if psel() != 1 {
		t.Fatalf("two Hawkeye-leader prefetch misses left PSEL at %d, want 1", psel())
	}
	h.Victim(mLeader, cache.Access{Addr: 0, Type: trace.Writeback})
	if psel() != 1 {
		t.Fatalf("a writeback victim voted: PSEL %d", psel())
	}
}

// Regression test for the Hybrid PSEL audit: the counter must saturate
// at ±512 (NewHybrid's bound), not wrap — a wrapped PSEL hands followers
// to the losing constituent exactly when the evidence against it peaks.
func TestHybridPSELSaturates(t *testing.T) {
	const pselMax = 512
	h := NewHybrid(128, 16, SingleThreadParams())
	mLeader, hLeader := -1, -1
	for s := 127; s >= 0; s-- {
		switch h.duel.Leader(s) {
		case 0:
			mLeader = s
		case 1:
			hLeader = s
		}
	}
	psel := func() int { return h.duel.Votes().Psel }
	a := cache.Access{PC: 0x400, Addr: 0, Type: trace.Load}
	for i := 0; i < 2*pselMax+10; i++ {
		h.Victim(mLeader, a)
		if psel() < -pselMax {
			t.Fatalf("PSEL wrapped below -%d: %d", pselMax, psel())
		}
	}
	if psel() != -pselMax {
		t.Fatalf("PSEL did not saturate at -%d: %d", pselMax, psel())
	}
	for i := 0; i < 4*pselMax+10; i++ {
		h.Victim(hLeader, a)
		if psel() > pselMax {
			t.Fatalf("PSEL wrapped above %d: %d", pselMax, psel())
		}
	}
	if psel() != pselMax {
		t.Fatalf("PSEL did not saturate at %d: %d", pselMax, psel())
	}
}

// TestHybridFollowsWinner pins how the winner maps to decisions: follower
// victims go to MPPPB while it wins and to Hawkeye once it loses.
func TestHybridFollowsWinner(t *testing.T) {
	// 128 sets: the complement-select layout keeps half the sets followers
	// (64 sets would make every set a leader, like DRRIP at sets == 2*32).
	h := NewHybrid(128, 16, SingleThreadParams())
	mLeader, follower := -1, -1
	for s := 127; s >= 0; s-- {
		switch h.duel.Leader(s) {
		case 0:
			mLeader = s
		case -1:
			follower = s
		}
	}
	a := cache.Access{PC: 0x400, Addr: 0, Type: trace.Load}
	h.Victim(follower, a)
	if h.MPPPBDecisions != 1 || h.HawkeyeDecisions != 0 {
		t.Fatalf("follower decisions mpppb=%d hawkeye=%d while MPPPB wins, want 1 and 0", h.MPPPBDecisions, h.HawkeyeDecisions)
	}
	h.Victim(mLeader, a) // MPPPB's leader still decides, and its miss hands Hawkeye the followers
	h.Victim(follower, a)
	if h.HawkeyeDecisions != 1 {
		t.Fatalf("follower decisions hawkeye=%d once Hawkeye wins, want 1", h.HawkeyeDecisions)
	}
}

func TestHybridRunsEndToEnd(t *testing.T) {
	h := NewHybrid(64, 16, SingleThreadParams())
	c := cache.New("llc", 64, 16, h)
	// Mixed stream: hot loop + dead stream.
	for i := 0; i < 30000; i++ {
		c.Access(cache.Access{PC: 0x400, Addr: uint64(i%256) << trace.BlockBits, Type: trace.Load})
		c.Access(cache.Access{PC: 0x900, Addr: uint64(100000+i) << trace.BlockBits, Type: trace.Load})
	}
	if h.MPPPBDecisions+h.HawkeyeDecisions == 0 {
		t.Fatal("hybrid made no victim decisions")
	}
	hitRate := float64(c.Stats.DemandHits) / float64(c.Stats.DemandAccesses)
	if hitRate < 0.4 {
		t.Fatalf("hybrid hit rate %.3f on half-hot stream", hitRate)
	}
}

func TestHybridWritebackSafe(t *testing.T) {
	h := NewHybrid(64, 16, SingleThreadParams())
	c := cache.New("llc", 64, 16, h)
	c.Access(cache.Access{PC: 0x400, Addr: 0, Type: trace.Load})
	c.Access(cache.Access{Addr: 0, Type: trace.Writeback})
	if !c.Contains(0) {
		t.Fatal("hybrid dropped block on writeback")
	}
}
