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
	"mpppb/internal/verify"
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

// advisedCounts returns what a stream adds to the server's promote and
// bypass counters, read from its inline advice: hits advised to promote,
// and misses other than writebacks advised to bypass.
func advisedCounts(t *testing.T, events []Event, inline []byte) (promotes, bypasses uint64) {
	t.Helper()
	advice, err := ParseAdvice(inline, nil)
	if err != nil || len(advice) != len(events) {
		t.Fatalf("inline advice: %d records for %d events, err %v", len(advice), len(events), err)
	}
	for i, ev := range events {
		switch a := advice[i]; {
		case ev.Hit && a.Promote:
			promotes++
		case !ev.Hit && a.Bypass && ev.Type != trace.Writeback:
			bypasses++
		}
	}
	return promotes, bypasses
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
// with and without the reference shadow, across uneven batch boundaries,
// and the server must count the inline replay's promotes and bypasses.
func TestServeMatchesInline(t *testing.T) {
	const sets, ways, n = 64, 4, 60_000
	params := testParams()
	events := Annotate(newTestGen(12345), n, sets, ways, params)
	want := inlineAdvice(events, sets, params)
	promotes, bypasses := advisedCounts(t, events, want)
	if promotes == 0 || bypasses == 0 {
		t.Fatalf("degenerate stream: %d promotes, %d bypasses advised", promotes, bypasses)
	}

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
				if v := reg.Counter("mpppb_serve_promote_advised_total", "").Value(); v != promotes {
					t.Fatalf("promote counter %d, want %d", v, promotes)
				}
				if v := reg.Counter("mpppb_serve_bypass_advised_total", "").Value(); v != bypasses {
					t.Fatalf("bypass counter %d, want %d", v, bypasses)
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

// TestServeShardsAreNotTasks: shards are locks that connection handlers
// take, not pool tasks, so running a server adds nothing to the pool's
// task counter, which counts grid cells only.
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := started.Value() - before; got != 0 {
		t.Fatalf("a 3-shard server started %d pool tasks, want 0", got)
	}
}

// TestBatchWaitsForItsShard: a connection applies a batch only while it
// holds its shard's lock, and a held shard stops no other shard. The lock
// guards no shared data (each advisor belongs to one connection), so the
// race detector cannot see a missing one; this test is what keeps
// -shards a bound on the batches applied at once.
func TestBatchWaitsForItsShard(t *testing.T) {
	params := testParams()
	events := Annotate(newTestGen(99), 256, 64, 4, params)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, err := Start(Config{Addr: "127.0.0.1:0", Sets: 64, Params: params, Shards: shards, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			advise := func(id uint64) <-chan error {
				done := make(chan error, 1)
				go func() {
					c, err := Dial(srv.Addr(), id)
					if err == nil {
						_, err = c.Advise(events, nil)
						c.Close()
					}
					done <- err
				}()
				return done
			}
			wait := func(done <-chan error, what string) {
				t.Helper()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: Advise did not return", what)
				}
			}

			held := &srv.shards[srv.shardFor(1)]
			held.Lock()
			locked := true
			defer func() {
				// Before Close, which waits for the handler blocked on it.
				if locked {
					held.Unlock()
				}
			}()
			blocked := advise(1)
			if shards > 1 {
				// Client ids 1 and 2 hash to different shards of two.
				if srv.shardFor(2) == srv.shardFor(1) {
					t.Fatal("client ids 1 and 2 share a shard")
				}
				wait(advise(2), "client on the free shard")
			}
			select {
			case err := <-blocked:
				t.Fatalf("Advise returned (err %v) while its shard was held", err)
			case <-time.After(200 * time.Millisecond):
			}
			if v := reg.Counter("mpppb_serve_events_total", "").Value(); v != uint64(shards-1)*256 {
				t.Fatalf("%d events applied while client 1's shard was held, want %d", v, (shards-1)*256)
			}
			locked = false
			held.Unlock()
			wait(blocked, "client on the released shard")
		})
	}
}

// TestDivergentBatchIsCounted drives applyBatch with a reference shadow
// that places misses one position apart from the advisor, so the first
// miss other than a writeback diverges. The divergence names that
// event's index in the client's stream, and the counters read what they
// would per event: every event up to the divergent one is checked and
// counted, the batch and its events are not.
func TestDivergentBatchIsCounted(t *testing.T) {
	const sets = 64
	params := testParams()
	refParams := params
	refParams.Pi[0]--
	reg := obs.NewRegistry()
	s := &Server{m: newMetrics(reg)}
	cl := &clientState{id: 3, adv: core.NewAdvisor(sets, params), ref: verify.NewRefAdvisor(sets, refParams)}

	hit := func(i uint64) Event { return Event{PC: 0x400100 + 4*i, Addr: 0x10000 + 64*i, Hit: true} }
	first := []Event{hit(0), hit(1), hit(2)}
	second := []Event{
		{PC: 0x400200, Addr: 0x20000, Type: trace.Writeback},
		hit(3), hit(4), hit(5),
		{PC: 0x400300, Addr: 0x30000}, // event 7: the first placement
		hit(6),
	}
	inline := inlineAdvice(append(append([]Event(nil), first...), second...), sets, params)
	if a, _ := ParseAdvice(inline[7*AdviceWireSize:8*AdviceWireSize], nil); a[0].Bypass || a[0].Slot != 1 {
		t.Fatalf("event 7 advised %+v, want a placement at π1", a[0])
	}
	promotes, bypasses := advisedCounts(t, first, inline[:3*AdviceWireSize])
	p2, b2 := advisedCounts(t, second[:5], inline[3*AdviceWireSize:8*AdviceWireSize])
	promotes, bypasses = promotes+p2, bypasses+b2

	if _, err := s.applyBatch(cl, first, nil); err != nil {
		t.Fatal(err)
	}
	advice, err := s.applyBatch(cl, second, nil)
	if err == nil || !strings.Contains(err.Error(), "client 3 event 7 ") {
		t.Fatalf("second batch: err %v, want a divergence at client 3 event 7", err)
	}
	if len(advice) != 5 {
		t.Fatalf("%d advice records before the divergence stopped the batch, want 5", len(advice))
	}
	for name, want := range map[string]uint64{
		"mpppb_serve_batches_total":           1,
		"mpppb_serve_events_total":            3,
		"mpppb_serve_check_events_total":      8,
		"mpppb_serve_check_divergences_total": 1,
		"mpppb_serve_promote_advised_total":   promotes,
		"mpppb_serve_bypass_advised_total":    bypasses,
	} {
		if v := reg.Counter(name, "").Value(); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
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
