package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpppb/internal/cache"
	"mpppb/internal/core"
	"mpppb/internal/obs"
	"mpppb/internal/parallel"
	"mpppb/internal/trace"
	"mpppb/internal/verify"
)

// checkSweepEvery is how many events a checked client processes between
// full predictor/sampler state comparisons against the reference shadow.
// Advice itself is compared on every event.
const checkSweepEvery = 4096

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Sets is the number of LLC sets each client's advisor models.
	Sets int
	// Params is the predictor configuration shared by all clients.
	Params core.Params
	// Shards is the number of shard workers advisors are hash-routed
	// across; <= 0 means one.
	Shards int
	// Check shadows every client advisor with the verification layer's
	// reference reimplementation, comparing advice on every event and full
	// state periodically. Divergence is reported to the client as an error
	// frame and recorded as the server's Err.
	Check bool
	// DrainTimeout bounds how long Shutdown waits for open connections to
	// finish before force-closing them. Zero means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Metrics receives the server's counters; nil means obs.Default().
	Metrics *obs.Registry
	// Status, when non-nil, gets one cell per client connection.
	Status *obs.RunStatus
}

// DefaultDrainTimeout is the Shutdown drain bound when the Config leaves
// it zero.
const DefaultDrainTimeout = 5 * time.Second

// Server serves predictor advice over the framed binary protocol. Each
// accepted connection owns a fresh advisor (and, under Check, a reference
// shadow); all its batches are processed synchronously in arrival order
// by the shard its client id hashes to, so a client's advice stream is
// deterministic at any shard count.
type Server struct {
	cfg Config
	ln  net.Listener
	m   *metrics

	jobs    []chan *job
	shardWG sync.WaitGroup

	connWG   sync.WaitGroup
	acceptWG sync.WaitGroup

	mu       sync.Mutex
	conns    map[*servedConn]struct{}
	firstErr error
	stopped  bool
	// stopDone is closed by the first stop() caller once teardown is
	// complete; concurrent and repeat callers block on it instead of
	// re-waiting the WaitGroups, so every caller returns only after the
	// server has fully quiesced.
	stopDone chan struct{}

	connSeq atomic.Uint64
}

// servedConn wraps an accepted connection with an idempotent Close: the
// handler's removeConn and Shutdown's drain-deadline force-close can race
// to tear a connection down, and only one of them should actually close
// the socket.
type servedConn struct {
	net.Conn
	closeOnce sync.Once
	closeErr  error
}

func (c *servedConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.Conn.Close() })
	return c.closeErr
}

// job is one batch handed to a shard worker. The worker fills advice and
// replies exactly once on done.
type job struct {
	cl     *clientState
	events []Event
	advice []core.Advice
	done   chan error
}

// clientState is one connection's serving state.
type clientState struct {
	id     uint64
	seq    uint64
	adv    *core.Advisor
	ref    *verify.RefAdvisor
	events uint64 // processed events, for periodic check sweeps
}

// Start listens on cfg.Addr and begins accepting clients. The returned
// server runs until Shutdown or Close.
func Start(cfg Config) (*Server, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("serve: sets %d is not a positive power of two", cfg.Sets)
	}
	if len(cfg.Params.Features) == 0 {
		return nil, errors.New("serve: params carry no feature set")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		m:        newMetrics(cfg.Metrics),
		jobs:     make([]chan *job, cfg.Shards),
		conns:    map[*servedConn]struct{}{},
		stopDone: make(chan struct{}),
	}
	for i := range s.jobs {
		s.jobs[i] = make(chan *job, 1)
	}
	s.shardWG.Add(1)
	go func() {
		defer s.shardWG.Done()
		// Shard workers ride the repository's parallel runner; each loop
		// drains its own job channel until Shutdown closes it.
		parallel.ForEach(cfg.Shards, cfg.Shards, func(i int) error {
			s.shardLoop(s.jobs[i])
			return nil
		})
	}()
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Err returns the first serving error the server recorded — a check
// divergence or an internal failure — or nil.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

func (s *Server) recordErr(err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

// shardFor routes a client id to its shard.
func (s *Server) shardFor(clientID uint64) int {
	return int((clientID*0x9e3779b97f4a7c15)>>33) % s.cfg.Shards
}

// shardLoop is one shard worker: it applies each batch's events to the
// owning client's advisor, in arrival order, and reports the first check
// divergence.
func (s *Server) shardLoop(jobs <-chan *job) {
	for j := range jobs {
		start := time.Now()
		j.done <- s.applyBatch(j)
		s.m.batchSeconds.Observe(time.Since(start).Seconds())
	}
}

func (s *Server) applyBatch(j *job) error {
	cl := j.cl
	for i, ev := range j.events {
		adv := Apply(cl.adv, ev)
		j.advice = append(j.advice, adv)
		if ev.Hit {
			if adv.Promote {
				s.m.promotes.Inc()
			}
		} else if adv.Bypass && ev.Type != trace.Writeback {
			s.m.bypasses.Inc()
		}
		if cl.ref == nil {
			cl.events++
			continue
		}
		s.m.checkEvents.Inc()
		a := cache.Access{PC: ev.PC, Addr: ev.Addr, Type: ev.Type, Core: ev.Core}
		var want core.Advice
		if ev.Hit {
			want = cl.ref.AdviseHit(a, cl.adv.SetFor(a.Block()))
		} else {
			want = cl.ref.AdviseMiss(a, cl.adv.SetFor(a.Block()), ev.MayBypass)
		}
		if adv != want {
			s.m.divergences.Inc()
			return fmt.Errorf("serve: client %d event %d (%v pc=%#x addr=%#x hit=%v): production advice %+v, reference %+v",
				cl.id, cl.events+uint64(i), ev.Type, ev.PC, ev.Addr, ev.Hit, adv, want)
		}
		cl.events++
		if cl.events%checkSweepEvery == 0 {
			if err := cl.ref.CompareState(cl.adv); err != nil {
				s.m.divergences.Inc()
				return fmt.Errorf("serve: client %d after %d events: %w", cl.id, cl.events, err)
			}
		}
	}
	s.m.batches.Inc()
	s.m.events.Add(uint64(len(j.events)))
	return nil
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Close
		}
		conn := &servedConn{Conn: raw}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) removeConn(conn *servedConn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.connWG.Done()
}

// handle runs one connection: handshake, then a synchronous
// events→advice loop until the client hangs up.
func (s *Server) handle(conn *servedConn) {
	defer s.removeConn(conn)
	s.m.connections.Inc()
	s.m.clients.Inc()
	defer s.m.clients.Dec()

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	buf := make([]byte, 4096)

	typ, payload, err := ReadFrame(br, buf)
	if err != nil || typ != FrameHello {
		if err == nil {
			err = fmt.Errorf("serve: expected hello, got frame %q", typ)
		}
		s.failConn(bw, err)
		return
	}
	clientID, err := ParseHello(payload)
	if err != nil {
		s.failConn(bw, err)
		return
	}
	if err := WriteFrame(bw, FrameHelloAck, AppendHelloAck(nil, s.cfg.Sets, s.cfg.Shards, s.cfg.Check)); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	cl := &clientState{
		id:  clientID,
		seq: s.connSeq.Add(1),
		adv: core.NewAdvisor(s.cfg.Sets, s.cfg.Params),
	}
	if s.cfg.Check {
		cl.ref = verify.NewRefAdvisor(s.cfg.Sets, s.cfg.Params)
	}
	cell := fmt.Sprintf("client-%d#%d", cl.id, cl.seq)
	s.cfg.Status.AddCells(cell)
	s.cfg.Status.CellRunning(cell)
	start := time.Now()
	state := obs.CellOK

	jobs := s.jobs[s.shardFor(clientID)]
	j := &job{cl: cl, done: make(chan error, 1)}
	var out []byte
	for {
		typ, payload, err := ReadFrame(br, buf)
		if err != nil {
			if err != io.EOF {
				s.m.protoErrors.Inc()
				s.failConn(bw, err)
				state = obs.CellFailed
			}
			break
		}
		if typ != FrameEvents {
			s.m.protoErrors.Inc()
			s.failConn(bw, fmt.Errorf("serve: expected events, got frame %q", typ))
			state = obs.CellFailed
			break
		}
		j.events, err = ParseEvents(payload, j.events)
		if err == nil {
			err = checkCores(j.events, s.cfg.Params.Cores)
		}
		if err != nil {
			s.m.protoErrors.Inc()
			s.failConn(bw, err)
			state = obs.CellFailed
			break
		}
		j.advice = j.advice[:0]
		jobs <- j
		if err := <-j.done; err != nil {
			s.recordErr(err)
			s.failConn(bw, err)
			state = obs.CellFailed
			break
		}
		out = AppendAdviceBatch(out[:0], j.advice)
		if err := WriteFrame(bw, FrameAdvice, out); err != nil {
			break
		}
		if err := bw.Flush(); err != nil {
			break
		}
	}
	s.cfg.Status.CellDone(cell, state, time.Since(start))
}

// checkCores refuses a batch that names a core the served params do not
// model, before any of its events is applied.
func checkCores(events []Event, cores int) error {
	for i, ev := range events {
		if ev.Core >= cores {
			return fmt.Errorf("serve: event %d: core %d outside the %d core(s) of the served params", i, ev.Core, cores)
		}
	}
	return nil
}

// failConn best-effort reports an error to the client before the
// connection is torn down.
func (s *Server) failConn(bw *bufio.Writer, err error) {
	msg := err.Error()
	if len(msg) > MaxFrame {
		msg = msg[:MaxFrame]
	}
	if WriteFrame(bw, FrameError, []byte(msg)) == nil {
		bw.Flush()
	}
}

// Shutdown drains the server: it stops accepting, waits up to the drain
// timeout for open connections to finish their streams, force-closes any
// stragglers, and stops the shard workers. It returns Err().
func (s *Server) Shutdown() error {
	s.stop(s.cfg.DrainTimeout)
	return s.Err()
}

// Close tears the server down immediately without draining.
func (s *Server) Close() error {
	s.stop(0)
	return s.Err()
}

func (s *Server) stop(drain time.Duration) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		// A concurrent or repeat caller must not re-Wait the WaitGroups
		// (the first caller may still be between its Waits and the channel
		// closes); it just waits for the first caller to finish teardown.
		<-s.stopDone
		return
	}
	s.stopped = true
	s.mu.Unlock()
	defer close(s.stopDone)

	s.ln.Close()
	s.acceptWG.Wait()

	if drain > 0 {
		done := make(chan struct{})
		go func() { s.connWG.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(drain):
		}
	}
	// Force-close whatever is still open (no-op after a clean drain), then
	// wait for every handler to exit before closing the shard channels
	// handlers send on.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	for _, ch := range s.jobs {
		close(ch)
	}
	s.shardWG.Wait()
}
