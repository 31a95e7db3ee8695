package serve

import (
	"bufio"
	"bytes"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/trace"
)

// FuzzServeProtocol throws arbitrary byte streams at the wire codec: the
// frame reader must reject anything malformed without panicking or
// over-allocating, and any payload the parsers accept must re-encode to
// the identical bytes (the codec is bijective on its valid subset —
// that's what makes "byte-identical advice streams" a meaningful
// equivalence gate).
func FuzzServeProtocol(f *testing.F) {
	var seed []byte
	seed = appendFrame(seed, FrameHello, AppendHello(nil, 7))
	seed = appendFrame(seed, FrameHelloAck, AppendHelloAck(nil, 2048, 4, true))
	f.Add(seed)

	events := AppendEvents(nil, []Event{
		{PC: 0x400100, Addr: 0x12340, Type: trace.Load, Hit: true},
		{PC: 0x400108, Addr: 0x99900, Type: trace.Store, MayBypass: true},
		{PC: trace.PrefetchPC, Addr: 0x40, Type: trace.Prefetch, Core: 3},
	})
	f.Add(appendFrame(nil, FrameEvents, events))
	f.Add(appendFrame(nil, FrameAdvice, AppendAdviceBatch(nil, []core.Advice{
		{Conf: -256, Bypass: true},
		{Conf: 42, Promote: true, Pos: 6, Slot: 2},
	})))
	f.Add(appendFrame(nil, FrameError, []byte("mpppb: divergence")))
	f.Add([]byte{FrameEvents, 0xff, 0xff, 0xff, 0xff}) // oversized length prefix
	f.Add(seed[:3])                                    // torn frame header

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		buf := make([]byte, 128)
		var events []Event
		var advice []core.Advice
		for {
			typ, payload, err := ReadFrame(r, buf)
			if err != nil {
				return
			}
			switch typ {
			case FrameHello:
				if _, err := ParseHello(payload); err == nil {
					id, _ := ParseHello(payload)
					if got := AppendHello(nil, id); !bytes.Equal(got, payload) {
						t.Fatalf("hello round trip: %x != %x", got, payload)
					}
				}
			case FrameHelloAck:
				if sets, shards, check, err := ParseHelloAck(payload); err == nil {
					if got := AppendHelloAck(nil, sets, shards, check); !bytes.Equal(got, payload) {
						t.Fatalf("hello-ack round trip: %x != %x", got, payload)
					}
				}
			case FrameEvents:
				var err error
				if events, err = ParseEvents(payload, events); err == nil {
					if got := AppendEvents(nil, events); !bytes.Equal(got, payload) {
						t.Fatalf("events round trip: %x != %x", got, payload)
					}
				}
			case FrameAdvice:
				var err error
				if advice, err = ParseAdvice(payload, advice); err == nil {
					if got := AppendAdviceBatch(nil, advice); !bytes.Equal(got, payload) {
						t.Fatalf("advice round trip: %x != %x", got, payload)
					}
				}
			case FrameError:
				_ = payload
			}
		}
	})
}

func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(dst)
	bw := bufio.NewWriter(&buf)
	if err := WriteFrame(bw, typ, payload); err != nil {
		panic(err)
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
