package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"mpppb/internal/core"
	"mpppb/internal/obs"
	"mpppb/internal/serve"
	"mpppb/internal/stats"
	"mpppb/internal/workload"
)

const (
	serveSets   = 2048 // the 2 MB single-thread LLC
	serveWays   = 16
	serveShards = 2
	serveBatch  = 256
	serveEvents = 1_000_000 // per client and pass
)

// serveStreams are the two clients' access streams: a zipf and a
// pointer-chase segment. Client ids 1 and 2 hash to different shards of a
// two-shard server.
var serveStreams = []string{"gcc_like-0", "mcf_like-1"}

type serveClient struct {
	id     uint64
	events []serve.Event
	want   []core.Advice // the inline replay's advice: what the server must answer
	misses int
}

type tracedPass struct {
	span   *span
	factor float64
}

// servePass is one client's part of one pass.
type servePass struct {
	latencyUS []float64
	failed    int
	failure   string
}

type serveRunner struct {
	srv     *serve.Server
	params  core.Params
	clients []*serveClient
	passes  int
	// per untraced pass, at reference host speed (hostspeed.go)
	factors      []float64
	eventsPerSec []float64
	latencyUS    [][]float64
	// per traced pass, for the per-layer metrics
	tracedPasses []tracedPass
	check        *checker
	attempted    int
	failed       int
	failures     []string
}

func setupServe(o options) (runner, error) {
	check, err := newChecker("serve_2c", o)
	if err != nil {
		return nil, err
	}
	s := &serveRunner{params: core.SingleThreadParams(), check: check}
	for i, seg := range serveStreams {
		id, err := workload.ParseSegmentID(seg)
		if err != nil {
			return nil, err
		}
		c := &serveClient{id: uint64(i + 1)}
		c.events = serve.Annotate(workload.NewSeededGenerator(id, 0, o.seed), serveEvents/int(o.scale), serveSets, serveWays, s.params)
		adv := core.NewAdvisor(serveSets, s.params)
		c.want = make([]core.Advice, len(c.events))
		var stream []byte
		for j, ev := range c.events {
			c.want[j] = serve.Apply(adv, ev)
			stream = serve.AppendAdvice(stream, c.want[j])
			if !ev.Hit {
				c.misses++
			}
		}
		key := fmt.Sprintf("client%d/%s", c.id, seg)
		if why := check.check(key, digest(string(stream))); why != "" {
			s.failed++
			s.failures = append(s.failures, why)
		}
		s.clients = append(s.clients, c)
	}
	s.srv, err = serve.Start(serve.Config{
		Addr: "127.0.0.1:0", Sets: serveSets, Params: s.params,
		Shards: serveShards, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serveRunner) close() { s.srv.Close() }

// round is one pass: both clients stream their whole event list over
// fresh connections at once, each waiting for a batch's advice before
// sending the next (a closed loop: a cache must know whether to fill
// before it does). Served advice must equal the inline replay's. A traced
// pass then replays the events inline, outside the pass's measured time.
func (s *serveRunner) round(tr *tracer, _ bool) float64 {
	runtime.GC()
	f := hostFactor()
	var pass *span
	spans := make([]*span, len(s.clients))
	if tr != nil {
		pass = tr.begin(fmt.Sprintf("pass %d", s.passes), nil)
		for i, c := range s.clients {
			spans[i] = tr.begin(fmt.Sprintf("client%d", c.id), pass)
		}
	}
	out := make([]servePass, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = s.stream(c, spans[i])
			if tr != nil {
				tr.end(spans[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	s.passes++

	var events float64
	var lat []float64
	failed := 0
	for i, p := range out {
		s.attempted += (len(s.clients[i].events) + serveBatch - 1) / serveBatch
		failed += p.failed
		if p.failure != "" {
			s.failures = append(s.failures, p.failure)
		}
		events += float64(len(s.clients[i].events))
		for _, l := range p.latencyUS {
			lat = append(lat, l/f)
		}
	}
	s.failed += failed
	if tr != nil {
		for _, c := range s.clients {
			sp := tr.begin(fmt.Sprintf("client%d inline", c.id), pass)
			s.applyInline(c, sp)
			tr.end(sp)
		}
		tr.end(pass)
		s.tracedPasses = append(s.tracedPasses, tracedPass{pass, f})
	} else if failed == 0 {
		s.factors = append(s.factors, f)
		s.eventsPerSec = append(s.eventsPerSec, events/wall*f)
		s.latencyUS = append(s.latencyUS, lat)
	}
	return wall
}

// stream sends one client's events and checks the advice.
func (s *serveRunner) stream(c *serveClient, sp *span) servePass {
	batches := (len(c.events) + serveBatch - 1) / serveBatch
	p := servePass{latencyUS: make([]float64, 0, batches)}
	t := time.Now()
	cl, err := serve.Dial(s.srv.Addr(), c.id)
	if sp != nil {
		dial := sp.calls("serve.dial")
		dial.N++
		dial.add(time.Since(t))
	}
	if err != nil {
		p.failed, p.failure = batches, fmt.Sprintf("client%d: dial: %v", c.id, err)
		return p
	}
	defer cl.Close()
	var advice []core.Advice
	var frame []byte
	for off := 0; off < len(c.events); off += serveBatch {
		batch := c.events[off:min(off+serveBatch, len(c.events))]
		if sp != nil {
			// Client.Advise encodes internally; the same encoding is
			// timed here on its own.
			enc := sp.calls("serve.encode")
			enc.N++
			t := time.Now()
			frame = serve.AppendEvents(frame[:0], batch)
			enc.add(time.Since(t))
		}
		t := time.Now()
		advice, err = cl.Advise(batch, advice)
		d := time.Since(t)
		if err != nil {
			p.failed += batches - off/serveBatch
			p.failure = fmt.Sprintf("client%d batch %d: %v", c.id, off/serveBatch, err)
			return p
		}
		p.latencyUS = append(p.latencyUS, float64(d)/1e3)
		if sp != nil {
			rt := sp.calls("serve.advise")
			rt.N++
			rt.add(d)
		}
		if !slices.Equal(advice, c.want[off:off+len(batch)]) {
			p.failed++
			if p.failure == "" {
				p.failure = fmt.Sprintf("client%d batch %d: served advice differs from the inline replay", c.id, off/serveBatch)
			}
		}
	}
	return p
}

// applyInline replays a client's events through a fresh advisor, timing a
// sample of the events: the serving path's lower bound, split by hit and
// miss events.
func (s *serveRunner) applyInline(c *serveClient, sp *span) {
	adv := core.NewAdvisor(serveSets, s.params)
	hit, miss := sp.calls("core.apply_hit"), sp.calls("core.apply_miss")
	for _, ev := range c.events {
		agg := miss
		if ev.Hit {
			agg = hit
		}
		if agg.N++; agg.N%sampleEvery != 0 {
			serve.Apply(adv, ev)
			continue
		}
		t := time.Now()
		serve.Apply(adv, ev)
		agg.add(time.Since(t))
	}
	st := adv.Stats()
	sp.calls("core.train").N += st.TrainEvents
	sp.calls("core.bypass").N += st.Bypasses
}

func (s *serveRunner) finish(rep *report, tr *tracer) {
	rep.aliases = map[string]string{
		"llc_acc_per_s":   "events_per_s",
		"mpppb_acc_per_s": "events_per_s",
		"tail_us":         "batch_p99_us",
	}
	if err := s.srv.Err(); err != nil {
		s.failures = append(s.failures, fmt.Sprintf("server: %v", err))
		s.failed++
	}
	rep.attempted, rep.failed = s.attempted, s.failed
	rep.notes = append(rep.notes, s.failures...)
	rep.digests = s.check.first

	rep.metric(false, "host_factor", "ratio").xs = s.factors
	rep.metric(false, "events_per_s", "acc/s").xs = s.eventsPerSec
	// p50 and p99 are taken per pass (about 7,800 batches, so p99 has about
	// 78 beyond it) and reported as the median over passes, which is
	// steadier than pooling; p99.9 needs the batches of every pass pooled.
	var pooled []float64
	for _, q := range []struct {
		name string
		p    float64
	}{{"batch_p50_us", 0.5}, {"batch_p99_us", 0.99}, {"batch_p999_us", 0.999}} {
		m := rep.metric(false, q.name, "us")
		for _, l := range s.latencyUS {
			m.add(stats.Quantile(l, q.p))
			if q.p == 0.999 {
				pooled = append(pooled, l...)
			}
		}
		if len(pooled) > 0 {
			v := stats.Quantile(pooled, q.p)
			m.pooled, m.count = &v, len(pooled)
		}
	}
	if tr != nil {
		s.layers(rep, tr)
	}
}

// layers derives the per-layer metrics of each traced pass.
func (s *serveRunner) layers(rep *report, tr *tracer) {
	var events, misses float64
	for _, c := range s.clients {
		events += float64(len(c.events))
		misses += float64(c.misses)
	}
	batches := float64(s.attempted) / float64(s.passes)
	for _, pass := range s.tracedPasses {
		// Totals (at reference host speed) and counts of each call over
		// the pass's client spans; per-call means differ by client, so
		// totals are summed.
		ns, n := map[string]float64{}, map[string]float64{}
		for _, sp := range tr.spans {
			if sp.Parent != pass.span.ID {
				continue
			}
			for name, c := range sp.Calls {
				ns[name] += c.total(tr.timer) / pass.factor
				n[name] += float64(c.N)
			}
		}
		encode, advise := ns["serve.encode"], ns["serve.advise"]
		apply := ns["core.apply_hit"] + ns["core.apply_miss"]
		rep.metric(true, "delivery.ns_per_acc", "ns").add(encode / events)
		rep.metric(true, "policy.ns_per_acc", "ns").add(apply / events)
		rep.metric(true, "policy.ns_per_hit", "ns").add(ns["core.apply_hit"] / n["core.apply_hit"])
		rep.metric(true, "policy.ns_per_miss", "ns").add(ns["core.apply_miss"] / n["core.apply_miss"])
		rep.metric(true, "rest.ns_per_acc", "ns").add((advise - apply - encode) / events)
		rep.metric(true, "core.train_per_acc", "ratio").add(n["core.train"] / events)
		rep.metric(true, "core.bypass_ratio", "ratio").add(n["core.bypass"] / misses)
		rep.metric(true, "serve.wire_us_per_batch", "us").add((advise - apply - encode) / batches / 1e3)
		rep.metric(true, "serve.conn_setup_us", "us").add(ns["serve.dial"] / n["serve.dial"] / 1e3)
	}
}
