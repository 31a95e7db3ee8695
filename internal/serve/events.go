package serve

import (
	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/trace"
)

// Event is one access a client asks advice for. The client owns the cache
// array, so it reports the lookup outcome: Hit selects the hit-side
// decision; on a miss MayBypass reports whether the fill can be declined —
// false when the set has an invalid frame, mirroring cache.Cache, which
// only consults the bypass point when the set is full.
type Event struct {
	// PC is the address of the memory instruction responsible.
	PC uint64
	// Addr is the byte address referenced.
	Addr uint64
	// Type is the access type (load, store, prefetch, writeback).
	Type trace.AccessType
	// Core identifies the requesting core (0-based, below the served
	// params' Cores; the server refuses a batch naming any other).
	Core int
	// Hit reports whether the client's lookup hit.
	Hit bool
	// MayBypass reports, on a miss, whether the client can decline the
	// fill. Must be false on hits.
	MayBypass bool
}

// Apply drives one event through an advisor and returns its advice. It is
// the single authoritative Event→Advisor mapping: the server's shard
// workers and the inline replay used by the equivalence tests both run
// exactly this.
func Apply(adv *core.Advisor, ev Event) core.Advice {
	a := cache.Access{PC: ev.PC, Addr: ev.Addr, Type: ev.Type, Core: ev.Core}
	if ev.Hit {
		return adv.AdviseHit(a, adv.SetFor(a.Block()))
	}
	return adv.AdviseMiss(a, adv.SetFor(a.Block()), ev.MayBypass)
}

// Annotate runs n records from gen through an LLC under the inline MPPPB
// policy and returns the annotated event stream: hits become hit events,
// misses carry MayBypass exactly when the cache consulted the bypass
// point. Replaying the stream through a fresh Advisor (or a server)
// reproduces the inline policy's decisions and state evolution exactly;
// it is the canonical event source for the equivalence tests, the smoke
// script, and the client benchmark.
func Annotate(gen trace.Generator, n, sets, ways int, params core.Params) []Event {
	m := core.NewMPPPB(sets, ways, params)
	llc := cache.New("llc", sets, ways, m)
	events := make([]Event, 0, n)
	var rec trace.Record
	for i := 0; i < n; i++ {
		gen.Next(&rec)
		a := cache.Access{PC: rec.PC, Addr: rec.Addr, Type: trace.Load}
		if rec.IsWrite {
			a.Type = trace.Store
		}
		r := llc.Access(a)
		ev := Event{PC: a.PC, Addr: a.Addr, Type: a.Type, Hit: r.Hit}
		if !r.Hit {
			ev.MayBypass = r.Bypassed || r.EvictedValid
		}
		events = append(events, ev)
	}
	return events
}
