// Package serve is the advice-serving layer: a long-running server that
// accepts streamed access events from many concurrent clients over a
// compact binary protocol and answers with the predictor's
// bypass/placement/promotion advice. Each client gets its own
// core.Advisor instance (the standalone engine behind the inline MPPPB
// policy), hash-routed to a shard worker; with checking enabled every
// advisor is shadowed by the verification layer's reference
// reimplementation.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"

	"mpppb/internal/core"
	"mpppb/internal/trace"
)

// Magic identifies the protocol revision. It opens every Hello frame; a
// mismatch means the peer speaks a different wire format.
const Magic = "MPPPBSRV1"

// Frame types. Every frame on the wire is one type byte, a uint32
// little-endian payload length, and the payload.
const (
	// FrameHello opens a connection (client → server): Magic then the
	// client's uint64 id, used for shard routing.
	FrameHello = 'H'
	// FrameHelloAck accepts a connection (server → client): the modeled
	// set count, the shard count, and the check flag.
	FrameHelloAck = 'O'
	// FrameEvents carries a batch of access events (client → server).
	FrameEvents = 'B'
	// FrameAdvice carries one advice record per event of the batch it
	// answers (server → client).
	FrameAdvice = 'A'
	// FrameError carries a UTF-8 message (server → client); the server
	// closes the connection after sending it.
	FrameError = 'E'
)

// Wire sizes.
const (
	frameHeaderSize = 5
	helloSize       = len(Magic) + 8
	helloAckSize    = 9
	// EventWireSize is the encoded size of one Event.
	EventWireSize = 18
	// AdviceWireSize is the encoded size of one core.Advice.
	AdviceWireSize = 4
)

// MaxBatch caps the events per FrameEvents frame; it bounds both server
// memory per connection and the latency of the synchronous batch
// round-trip.
const MaxBatch = 1 << 16

// MaxFrame caps any frame's payload length. Reads beyond it are protocol
// errors, so a corrupt length prefix cannot make either side allocate
// unboundedly.
const MaxFrame = MaxBatch * EventWireSize

// Event flag bits (byte 16 of the encoding).
const (
	eventTypeMask    = 0x03 // trace.AccessType in the low two bits
	eventHitFlag     = 0x04
	eventBypassFlag  = 0x08
	eventUnusedFlags = 0xf0
)

// Advice flag bits (byte 2 of the encoding).
const (
	adviceBypassFlag  = 0x01
	adviceMaskPromote = 0x02
	adviceSlotShift   = 2
	adviceSlotMask    = 0x03
	adviceUnusedFlags = 0xf0
)

// WriteFrame writes one frame. The payload must not exceed MaxFrame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("serve: frame %q payload %d bytes exceeds limit %d", typ, len(payload), MaxFrame)
	}
	var hdr [frameHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf for the payload when it is large
// enough. It returns io.EOF only on a clean boundary (no partial frame).
func ReadFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ = hdr[0]
	switch typ {
	case FrameHello, FrameHelloAck, FrameEvents, FrameAdvice, FrameError:
	default:
		return 0, nil, fmt.Errorf("serve: unknown frame type %#x", typ)
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("serve: frame %q payload %d bytes exceeds limit %d", typ, n, MaxFrame)
	}
	if int(n) <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}

// AppendHello encodes a Hello payload.
func AppendHello(dst []byte, clientID uint64) []byte {
	dst = append(dst, Magic...)
	return binary.LittleEndian.AppendUint64(dst, clientID)
}

// ParseHello decodes a Hello payload.
func ParseHello(p []byte) (clientID uint64, err error) {
	if len(p) != helloSize {
		return 0, fmt.Errorf("serve: hello payload %d bytes, want %d", len(p), helloSize)
	}
	if string(p[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("serve: bad magic %q", p[:len(Magic)])
	}
	return binary.LittleEndian.Uint64(p[len(Magic):]), nil
}

// AppendHelloAck encodes a HelloAck payload.
func AppendHelloAck(dst []byte, sets, shards int, check bool) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(sets))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(shards))
	flags := byte(0)
	if check {
		flags = 1
	}
	return append(dst, flags)
}

// ParseHelloAck decodes a HelloAck payload.
func ParseHelloAck(p []byte) (sets, shards int, check bool, err error) {
	if len(p) != helloAckSize {
		return 0, 0, false, fmt.Errorf("serve: hello-ack payload %d bytes, want %d", len(p), helloAckSize)
	}
	sets = int(binary.LittleEndian.Uint32(p))
	shards = int(binary.LittleEndian.Uint32(p[4:]))
	if p[8] > 1 {
		return 0, 0, false, fmt.Errorf("serve: hello-ack flags %#x unknown", p[8])
	}
	return sets, shards, p[8] == 1, nil
}

// AppendEvent encodes one event.
func AppendEvent(dst []byte, ev Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ev.PC)
	dst = binary.LittleEndian.AppendUint64(dst, ev.Addr)
	flags := byte(ev.Type) & eventTypeMask
	if ev.Hit {
		flags |= eventHitFlag
	}
	if ev.MayBypass {
		flags |= eventBypassFlag
	}
	return append(dst, flags, byte(ev.Core))
}

// AppendEvents encodes a batch.
func AppendEvents(dst []byte, events []Event) []byte {
	for _, ev := range events {
		dst = AppendEvent(dst, ev)
	}
	return dst
}

// ParseEvents decodes a FrameEvents payload into events, reusing the
// passed slice. It rejects malformed payloads (bad length, reserved flag
// bits, a hit with mayBypass) rather than guessing. Cores are checked
// against the served params by the server, which alone knows them.
func ParseEvents(p []byte, events []Event) ([]Event, error) {
	if len(p)%EventWireSize != 0 {
		return nil, fmt.Errorf("serve: events payload %d bytes is not a multiple of %d", len(p), EventWireSize)
	}
	n := len(p) / EventWireSize
	if n > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d events exceeds limit %d", n, MaxBatch)
	}
	events = events[:0]
	for i := 0; i < n; i++ {
		rec := p[i*EventWireSize:]
		flags := rec[16]
		if flags&eventUnusedFlags != 0 {
			return nil, fmt.Errorf("serve: event %d: reserved flag bits %#x set", i, flags&eventUnusedFlags)
		}
		ev := Event{
			PC:        binary.LittleEndian.Uint64(rec),
			Addr:      binary.LittleEndian.Uint64(rec[8:]),
			Type:      trace.AccessType(flags & eventTypeMask),
			Hit:       flags&eventHitFlag != 0,
			MayBypass: flags&eventBypassFlag != 0,
			Core:      int(rec[17]),
		}
		if ev.Hit && ev.MayBypass {
			return nil, fmt.Errorf("serve: event %d: hit with mayBypass set", i)
		}
		events = append(events, ev)
	}
	return events, nil
}

// AppendAdvice encodes one advice record.
func AppendAdvice(dst []byte, a core.Advice) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(a.Conf))
	flags := byte(a.Slot&adviceSlotMask) << adviceSlotShift
	if a.Bypass {
		flags |= adviceBypassFlag
	}
	if a.Promote {
		flags |= adviceMaskPromote
	}
	return append(dst, flags, byte(a.Pos))
}

// AppendAdviceBatch encodes a batch of advice records. The encoding is
// the serving path's canonical output: equivalence tests compare these
// bytes directly.
func AppendAdviceBatch(dst []byte, advice []core.Advice) []byte {
	for _, a := range advice {
		dst = AppendAdvice(dst, a)
	}
	return dst
}

// ParseAdvice decodes a FrameAdvice payload, reusing the passed slice.
func ParseAdvice(p []byte, advice []core.Advice) ([]core.Advice, error) {
	if len(p)%AdviceWireSize != 0 {
		return nil, fmt.Errorf("serve: advice payload %d bytes is not a multiple of %d", len(p), AdviceWireSize)
	}
	advice = advice[:0]
	for i := 0; i+AdviceWireSize <= len(p); i += AdviceWireSize {
		flags := p[i+2]
		if flags&adviceUnusedFlags != 0 {
			return nil, fmt.Errorf("serve: advice %d: reserved flag bits %#x set", i/AdviceWireSize, flags&adviceUnusedFlags)
		}
		advice = append(advice, core.Advice{
			Conf:    int16(binary.LittleEndian.Uint16(p[i:])),
			Bypass:  flags&adviceBypassFlag != 0,
			Promote: flags&adviceMaskPromote != 0,
			Slot:    (flags >> adviceSlotShift) & adviceSlotMask,
			Pos:     int8(p[i+3]),
		})
	}
	return advice, nil
}
