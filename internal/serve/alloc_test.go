package serve

import (
	"bufio"
	"bytes"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/obs"
)

// TestAdviseLoopDoesNotAllocate extends the zero-alloc steady-state guard
// internal/core pins on the inline policy to the serving hot path: the
// per-event advise loop each connection runs (Apply: Event → Access →
// AdviseHit/AdviseMiss) must not touch the heap once the advisor is warm.
// Connection setup, batch framing, and the advice append are the batch
// layer's amortized costs and are excluded — this is the loop that runs
// once per event.
func TestAdviseLoopDoesNotAllocate(t *testing.T) {
	const sets, ways, batch = 2048, 16, 4096
	params := core.SingleThreadParams()
	events := Annotate(newTestGen(7), batch, sets, ways, params)
	adv := core.NewAdvisor(sets, params)
	for _, ev := range events {
		Apply(adv, ev)
	}
	i := 0
	if avg := testing.AllocsPerRun(5000, func() {
		Apply(adv, events[i%batch])
		i++
	}); avg != 0 {
		t.Fatalf("serve advise loop allocates %v times per event", avg)
	}
}

// TestServedRoundTripDoesNotAllocate is the live guard over what the two
// tests around it cover piecewise: an in-process server and client, and
// 256-event Advise round trips over loopback TCP through the server's
// read, apply and write loop. Once warm-up batches have sized every
// buffer on both sides, a round trip must not touch the heap.
func TestServedRoundTripDoesNotAllocate(t *testing.T) {
	const sets, ways, batch = 2048, 16, 256
	params := core.SingleThreadParams()
	events := Annotate(newTestGen(7), 32*batch, sets, ways, params)
	srv, err := Start(Config{Addr: "127.0.0.1:0", Sets: sets, Params: params, Shards: 2, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var advice []core.Advice
	off := 0
	roundTrip := func() {
		if advice, err = c.Advise(events[off:off+batch], advice); err != nil {
			t.Fatal(err)
		}
		off = (off + batch) % len(events)
	}
	for range 8 {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("a served %d-event round trip allocates %v times", batch, avg)
	}
}

// TestFrameRoundTripDoesNotAllocate covers the batch layer the advise
// loop guard leaves out: one events frame written and read back, its
// events parsed and advised, the advice encoded, framed, read back and
// parsed. Once the first batch has sized every buffer, a round trip must
// not touch the heap, at the benchmark's 256-event batch and at 2048
// events, whose frames outgrow a 4 KiB read buffer.
func TestFrameRoundTripDoesNotAllocate(t *testing.T) {
	const sets, ways = 2048, 16
	params := core.SingleThreadParams()
	for _, batch := range []int{256, 2048} {
		events := Annotate(newTestGen(7), batch, sets, ways, params)
		adv := core.NewAdvisor(sets, params)
		var wire bytes.Buffer
		bw := bufio.NewWriter(&wire)
		var (
			frame, srvBuf, out, cliBuf []byte
			parsed                     []Event
			advice, got                []core.Advice
		)
		send := func(typ byte, payload []byte, buf *[]byte) []byte {
			if err := WriteFrame(bw, typ, payload); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			rtyp, p, err := ReadFrame(&wire, *buf)
			if err != nil || rtyp != typ {
				t.Fatalf("read frame %q: %v", rtyp, err)
			}
			*buf = p
			return p
		}
		roundTrip := func() {
			frame = AppendEvents(frame[:0], events)
			var err error
			if parsed, err = ParseEvents(send(FrameEvents, frame, &srvBuf), parsed); err != nil {
				t.Fatal(err)
			}
			advice = advice[:0]
			for _, ev := range parsed {
				advice = append(advice, Apply(adv, ev))
			}
			out = AppendAdviceBatch(out[:0], advice)
			if got, err = ParseAdvice(send(FrameAdvice, out, &cliBuf), got); err != nil {
				t.Fatal(err)
			}
			if len(got) != batch {
				t.Fatalf("%d advice records for %d events", len(got), batch)
			}
		}
		roundTrip()
		if avg := testing.AllocsPerRun(20, roundTrip); avg != 0 {
			t.Errorf("%d-event frame round trip allocates %v times", batch, avg)
		}
	}
}
