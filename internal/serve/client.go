package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"mpppb/internal/core"
)

// Client is one connection to an advice server. It is synchronous and not
// safe for concurrent use; concurrent streams use one Client each.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte // read buffer, grown to the largest frame seen
	out  []byte

	// Sets, Shards, and Check echo the server's HelloAck.
	Sets   int
	Shards int
	Check  bool
}

// Dial connects to an advice server and performs the handshake. clientID
// routes all of this connection's batches to one server shard.
func Dial(addr string, clientID uint64) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
		buf:  make([]byte, 4096),
	}
	if err := WriteFrame(c.bw, FrameHello, AppendHello(nil, clientID)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := ReadFrame(c.br, c.buf)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.buf = payload
	switch typ {
	case FrameHelloAck:
	case FrameError:
		conn.Close()
		return nil, fmt.Errorf("serve: server rejected handshake: %s", payload)
	default:
		conn.Close()
		return nil, fmt.Errorf("serve: expected hello-ack, got frame %q", typ)
	}
	if c.Sets, c.Shards, c.Check, err = ParseHelloAck(payload); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Advise sends one batch of events and returns the server's advice, one
// record per event, reusing dst's storage (which may be nil). A
// FrameError from the server — a protocol violation or, under -check, a
// divergence — is returned as an error; the connection is then unusable.
func (c *Client) Advise(events []Event, dst []core.Advice) ([]core.Advice, error) {
	if len(events) > MaxBatch {
		return dst, fmt.Errorf("serve: batch of %d events exceeds limit %d", len(events), MaxBatch)
	}
	c.out = AppendEvents(c.out[:0], events)
	if err := WriteFrame(c.bw, FrameEvents, c.out); err != nil {
		return dst, err
	}
	if err := c.bw.Flush(); err != nil {
		return dst, err
	}
	typ, payload, err := ReadFrame(c.br, c.buf)
	if err != nil {
		return dst, err
	}
	c.buf = payload
	switch typ {
	case FrameAdvice:
	case FrameError:
		return dst, errors.New(string(payload))
	default:
		return dst, fmt.Errorf("serve: expected advice, got frame %q", typ)
	}
	if dst == nil {
		dst = make([]core.Advice, 0, len(events))
	}
	dst, err = ParseAdvice(payload, dst[:0])
	if err != nil {
		return dst, err
	}
	if len(dst) != len(events) {
		return dst, fmt.Errorf("serve: %d advice records for %d events", len(dst), len(events))
	}
	return dst, nil
}

// Close hangs up.
func (c *Client) Close() error { return c.conn.Close() }
