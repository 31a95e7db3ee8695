package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpppb/internal/core"
	"mpppb/internal/obs"
	"mpppb/internal/trace"
)

// testGen is a deterministic synthetic access mix (hot region, streaming
// scan, medium working set, noise) that produces hits, misses, bypasses,
// and promotions — the same shape the core advisor tests use.
type testGen struct{ state, i uint64 }

func newTestGen(seed uint64) *testGen { return &testGen{state: seed} }

func (g *testGen) Name() string { return "serve-testgen" }
func (g *testGen) Reset()       { panic("serve: testGen is single-pass") }

func (g *testGen) next64() uint64 {
	g.state ^= g.state << 13
	g.state ^= g.state >> 7
	g.state ^= g.state << 17
	return g.state
}

func (g *testGen) Next(rec *trace.Record) {
	g.i++
	r := g.next64()
	switch r % 4 {
	case 0:
		rec.Addr = 0x10000 + (r>>8)%64*64
		rec.PC = 0x400100
	case 1:
		rec.Addr = 0x900000 + g.i*64
		rec.PC = 0x400200
	case 2:
		rec.Addr = 0x40000 + (r>>8)%2048*64
		rec.PC = 0x400300 + (r>>20)%4*8
	default:
		rec.Addr = (r >> 4) & 0xffffff8
		rec.PC = 0x400400
	}
	rec.IsWrite = r%13 == 0
}

func testParams() core.Params {
	p := core.SingleThreadParams()
	p.SamplerSets = 16
	return p
}

// inlineAdvice replays an event stream through a fresh advisor via the
// same Apply the server runs, returning the wire-encoded advice stream.
func inlineAdvice(events []Event, sets int, params core.Params) []byte {
	adv := core.NewAdvisor(sets, params)
	var out []byte
	for _, ev := range events {
		out = AppendAdvice(out, Apply(adv, ev))
	}
	return out
}

// replayThrough streams events to a server in batches of batchSize and
// returns the concatenated wire-encoded advice.
func replayThrough(t *testing.T, addr string, clientID uint64, events []Event, batchSize int) []byte {
	t.Helper()
	c, err := Dial(addr, clientID)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out []byte
	var advice []core.Advice
	for off := 0; off < len(events); off += batchSize {
		end := min(off+batchSize, len(events))
		advice, err = c.Advise(events[off:end], advice)
		if err != nil {
			t.Fatalf("batch at %d: %v", off, err)
		}
		out = AppendAdviceBatch(out, advice)
	}
	return out
}

// TestServeMatchesInline is the serve-vs-sim equivalence gate: replaying
// an annotated event stream through a loopback server must yield a
// byte-identical advice stream to the inline advisor, at any shard count,
// with and without the reference shadow, across uneven batch boundaries.
func TestServeMatchesInline(t *testing.T) {
	const sets, ways, n = 64, 4, 60_000
	params := testParams()
	events := Annotate(newTestGen(12345), n, sets, ways, params)
	want := inlineAdvice(events, sets, params)

	for _, shards := range []int{1, 3} {
		for _, check := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d,check=%v", shards, check), func(t *testing.T) {
				reg := obs.NewRegistry()
				srv, err := Start(Config{
					Addr: "127.0.0.1:0", Sets: sets, Params: params,
					Shards: shards, Check: check, Metrics: reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := replayThrough(t, srv.Addr(), 42, events, 977)
				if err := srv.Shutdown(); err != nil {
					t.Fatalf("shutdown: %v", err)
				}
				if !bytes.Equal(got, want) {
					for i := 0; i < len(want) && i < len(got); i++ {
						if got[i] != want[i] {
							t.Fatalf("advice streams diverge at byte %d (event %d): serve %#x, inline %#x",
								i, i/AdviceWireSize, got[i], want[i])
						}
					}
					t.Fatalf("advice stream length %d, want %d", len(got), len(want))
				}
				if v := reg.Counter("mpppb_serve_events_total", "").Value(); v != n {
					t.Fatalf("events counter %d, want %d", v, n)
				}
				if reg.Counter("mpppb_serve_bypass_advised_total", "").Value() == 0 {
					t.Fatal("degenerate stream: no bypasses advised")
				}
				if check {
					if v := reg.Counter("mpppb_serve_check_events_total", "").Value(); v != n {
						t.Fatalf("check events counter %d, want %d", v, n)
					}
					if v := reg.Counter("mpppb_serve_check_divergences_total", "").Value(); v != 0 {
						t.Fatalf("divergences counter %d, want 0", v)
					}
				}
			})
		}
	}
}

// TestServeHandshake pins the HelloAck parameters and the rejection of a
// non-hello opening frame.
func TestServeHandshake(t *testing.T) {
	srv, err := Start(Config{
		Addr: "127.0.0.1:0", Sets: 128, Params: testParams(),
		Shards: 3, Check: true, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets != 128 || c.Shards != 3 || !c.Check {
		t.Fatalf("handshake echoed sets=%d shards=%d check=%v", c.Sets, c.Shards, c.Check)
	}
	c.Close()
}

// TestServeShardsAreNotTasks: shard loops are plain goroutines, so
// running a server adds nothing to the pool's task counter, which counts
// grid cells only.
func TestServeShardsAreNotTasks(t *testing.T) {
	started := obs.Default().Counter("mpppb_parallel_tasks_started_total", "")
	before := started.Value()
	srv, err := Start(Config{
		Addr: "127.0.0.1:0", Sets: 64, Params: testParams(),
		Shards: 3, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Close waits for every shard loop to start and finish.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := started.Value() - before; got != 0 {
		t.Fatalf("a 3-shard server started %d pool tasks, want 0", got)
	}
}

// TestServeProtocolErrors drives malformed streams at a live server and
// requires error frames (not hangs or panics) back.
func TestServeProtocolErrors(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Start(Config{Addr: "127.0.0.1:0", Sets: 64, Params: testParams(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// An events frame with reserved flag bits must come back as an error.
	c, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := AppendEvents(nil, []Event{{PC: 1, Addr: 64}})
	raw[16] |= 0x80
	if err := WriteFrame(c.bw, FrameEvents, raw); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(c.br, c.buf)
	if err != nil || typ != FrameError {
		t.Fatalf("mangled events: frame %q err %v", typ, err)
	}
	if !strings.Contains(string(payload), "reserved flag bits") {
		t.Fatalf("error frame: %s", payload)
	}
	c.Close()

	// A connection opening with a non-hello frame is rejected.
	if _, err := Dial(srv.Addr(), 2); err != nil {
		t.Fatal(err)
	}
	bad, err := Dial(srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(bad.bw, FrameAdvice, nil); err != nil {
		t.Fatal(err)
	}
	bad.bw.Flush()
	if _, err := bad.Advise([]Event{{Addr: 64}}, nil); err == nil {
		t.Fatal("post-handshake protocol violation went unanswered")
	}
	bad.Close()

	// Protocol failures never poison the server.
	if err := srv.Err(); err != nil {
		t.Fatalf("server recorded %v for a client protocol error", err)
	}
}

// TestServeRefusesOutOfRangeCore: a batch naming a core the served params
// do not model gets an error frame naming the event, its core and the
// limit, and none of its events is applied; the last modeled core is
// accepted.
func TestServeRefusesOutOfRangeCore(t *testing.T) {
	for name, params := range map[string]core.Params{
		"st": core.SingleThreadParams(),
		"mc": core.MultiCoreParams(),
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, err := Start(Config{Addr: "127.0.0.1:0", Sets: 64, Params: params, Check: true, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(srv.Addr(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			last := params.Cores - 1
			if _, err := c.Advise([]Event{{PC: 0x400, Addr: 64, Core: last}}, nil); err != nil {
				t.Fatalf("core %d refused: %v", last, err)
			}
			_, err = c.Advise([]Event{
				{PC: 0x400, Addr: 128, Core: last},
				{PC: 0x404, Addr: 192, Core: params.Cores},
			}, nil)
			want := fmt.Sprintf("event 1: core %d outside the %d core(s)", params.Cores, params.Cores)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("core %d: err %v, want an error containing %q", params.Cores, err, want)
			}
			if n := reg.Counter("mpppb_serve_check_events_total", "").Value(); n != 1 {
				t.Fatalf("%d events applied, want only the accepted batch's 1", n)
			}
			if err := srv.Err(); err != nil {
				t.Fatalf("server recorded %v for a client input error", err)
			}
		})
	}
}

// TestServeDrainForceCloses pins the shutdown bound: a client that stays
// connected cannot hold Shutdown past the drain timeout.
func TestServeDrainForceCloses(t *testing.T) {
	srv, err := Start(Config{
		Addr: "127.0.0.1:0", Sets: 64, Params: testParams(),
		DrainTimeout: 50 * time.Millisecond, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung past the drain timeout")
	}
	// Shutdown and Close are idempotent afterwards.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStartRejectsBadConfig pins the constructor's validation.
func TestStartRejectsBadConfig(t *testing.T) {
	if _, err := Start(Config{Addr: "127.0.0.1:0", Sets: 48, Params: testParams()}); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := Start(Config{Addr: "127.0.0.1:0", Sets: 64}); err == nil {
		t.Fatal("empty feature set accepted")
	}
}
