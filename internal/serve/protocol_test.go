package serve

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	payloads := map[byte][]byte{
		FrameHello:    AppendHello(nil, 0xdeadbeef),
		FrameHelloAck: AppendHelloAck(nil, 2048, 4, true),
		FrameEvents:   AppendEvents(nil, []Event{{PC: 1, Addr: 64, Type: trace.Store}}),
		FrameAdvice:   AppendAdviceBatch(nil, []core.Advice{{Conf: -7, Bypass: true}}),
		FrameError:    []byte("boom"),
	}
	for typ, p := range payloads {
		if err := WriteFrame(bw, typ, p); err != nil {
			t.Fatalf("write %q: %v", typ, err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 8)
	seen := 0
	for {
		typ, p, err := ReadFrame(&buf, scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, payloads[typ]) {
			t.Fatalf("frame %q payload %x, want %x", typ, p, payloads[typ])
		}
		seen++
	}
	if seen != len(payloads) {
		t.Fatalf("read %d frames, wrote %d", seen, len(payloads))
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	for name, raw := range map[string][]byte{
		"unknown type":    {'Z', 0, 0, 0, 0},
		"oversized":       {FrameEvents, 0xff, 0xff, 0xff, 0xff},
		"truncated hdr":   {FrameEvents, 1},
		"truncated body":  {FrameEvents, 4, 0, 0, 0, 1, 2},
		"hello bad magic": append([]byte{FrameHello, 17, 0, 0, 0}, []byte("XXXXXXXXX12345678")...),
	} {
		typ, p, err := ReadFrame(bytes.NewReader(raw), nil)
		if err == nil {
			if typ == FrameHello {
				_, err = ParseHello(p)
			}
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A clean boundary is io.EOF, not an error.
	if _, _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if err := WriteFrame(bufio.NewWriter(io.Discard), FrameError, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	id, err := ParseHello(AppendHello(nil, 42))
	if err != nil || id != 42 {
		t.Fatalf("hello round trip: id=%d err=%v", id, err)
	}
	sets, shards, check, err := ParseHelloAck(AppendHelloAck(nil, 4096, 7, false))
	if err != nil || sets != 4096 || shards != 7 || check {
		t.Fatalf("hello-ack round trip: sets=%d shards=%d check=%v err=%v", sets, shards, check, err)
	}
	if _, _, _, err := ParseHelloAck([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9}); err == nil {
		t.Fatal("unknown ack flags accepted")
	}
	if _, err := ParseHello(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
}

func TestEventsRoundTrip(t *testing.T) {
	events := []Event{
		{PC: 0x400100, Addr: 0x12340, Type: trace.Load, Hit: true},
		{PC: 0x400108, Addr: 0x99900, Type: trace.Store, MayBypass: true},
		{PC: trace.PrefetchPC, Addr: 0x40, Type: trace.Prefetch, Core: 3},
		{PC: 0, Addr: ^uint64(0), Type: trace.Writeback},
	}
	p := AppendEvents(nil, events)
	if len(p) != len(events)*EventWireSize {
		t.Fatalf("encoded %d bytes, want %d", len(p), len(events)*EventWireSize)
	}
	got, err := ParseEvents(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], events[i])
		}
	}

	for name, mangle := range map[string]func([]byte) []byte{
		"ragged length":  func(p []byte) []byte { return p[:len(p)-1] },
		"reserved flags": func(p []byte) []byte { p[16] |= 0x80; return p },
		"hit+mayBypass":  func(p []byte) []byte { p[16] = eventHitFlag | eventBypassFlag; return p },
	} {
		bad := mangle(append([]byte(nil), p...))
		if _, err := ParseEvents(bad, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAdviceRoundTrip(t *testing.T) {
	advice := []core.Advice{
		{},
		{Conf: -256, Bypass: true},
		{Conf: 255, Promote: true, Pos: 15},
		{Conf: -9, Pos: 6, Slot: 2},
		{Conf: 1, Pos: -1, Slot: 3},
	}
	p := AppendAdviceBatch(nil, advice)
	got, err := ParseAdvice(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range advice {
		if got[i] != advice[i] {
			t.Fatalf("advice %d: %+v, want %+v", i, got[i], advice[i])
		}
	}
	if _, err := ParseAdvice(p[:len(p)-2], nil); err == nil {
		t.Fatal("ragged advice length accepted")
	}
	p[2] |= 0x40
	if _, err := ParseAdvice(p, nil); err == nil {
		t.Fatal("reserved advice flags accepted")
	}
}

func TestParseEventsRejectsHugeBatch(t *testing.T) {
	// MaxFrame is exactly MaxBatch events, so an over-limit batch cannot
	// arrive through ReadFrame; ParseEvents still guards on its own.
	if MaxFrame != MaxBatch*EventWireSize {
		t.Fatalf("MaxFrame %d does not cover MaxBatch %d", MaxFrame, MaxBatch)
	}
	var c Client
	if _, err := c.Advise(make([]Event, MaxBatch+1), nil); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized client batch: %v", err)
	}
}
