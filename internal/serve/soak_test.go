package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpppb/internal/core"
	"mpppb/internal/obs"
)

// TestServeSoak hammers one server with many concurrent clients (run
// under -race by `make race`), with and without the reference shadow.
// Each client streams its own deterministic workload with its own batch
// size and must receive exactly the advice stream its single-client
// inline replay produces — per-client isolation — while the server's
// counters account for every connection, batch, event, promote, bypass
// and checked event exactly.
func TestServeSoak(t *testing.T) {
	const (
		clients = 10
		n       = 25_000
		sets    = 64
		ways    = 4
	)
	params := testParams()

	// Distinct event streams and expected advice, derived up front so the
	// concurrent phase only exercises the serving path.
	events := make([][]Event, clients)
	want := make([][]byte, clients)
	var wantBatches, wantPromotes, wantBypasses uint64
	for i := range events {
		events[i] = Annotate(newTestGen(uint64(1000+i)), n, sets, ways, params)
		want[i] = inlineAdvice(events[i], sets, params)
		batch := 503 + 97*i
		wantBatches += uint64((n + batch - 1) / batch)
		promotes, bypasses := advisedCounts(t, events[i], want[i])
		wantPromotes += promotes
		wantBypasses += bypasses
	}
	for _, check := range []bool{false, true} {
		t.Run(fmt.Sprintf("check=%v", check), func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, err := Start(Config{
				Addr: "127.0.0.1:0", Sets: sets, Params: params,
				Shards: 4, Check: check, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := Dial(srv.Addr(), uint64(i)*7+1)
					if err != nil {
						errs <- fmt.Errorf("client %d: dial: %w", i, err)
						return
					}
					defer c.Close()
					batch := 503 + 97*i
					var got []byte
					var advice []core.Advice
					for off := 0; off < len(events[i]); off += batch {
						end := min(off+batch, len(events[i]))
						advice, err = c.Advise(events[i][off:end], advice)
						if err != nil {
							errs <- fmt.Errorf("client %d batch at %d: %w", i, off, err)
							return
						}
						got = AppendAdviceBatch(got, advice)
					}
					if !bytes.Equal(got, want[i]) {
						errs <- fmt.Errorf("client %d: advice stream differs from its single-client replay", i)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			if err := srv.Shutdown(); err != nil {
				t.Fatalf("shutdown: %v", err)
			}

			// Exact accounting: every connection, batch, event, promote,
			// bypass and checked event is counted.
			wantChecked := uint64(0)
			if check {
				wantChecked = clients * n
			}
			for name, wantV := range map[string]uint64{
				"mpppb_serve_connections_total":       clients,
				"mpppb_serve_batches_total":           wantBatches,
				"mpppb_serve_events_total":            clients * n,
				"mpppb_serve_promote_advised_total":   wantPromotes,
				"mpppb_serve_bypass_advised_total":    wantBypasses,
				"mpppb_serve_check_events_total":      wantChecked,
				"mpppb_serve_check_divergences_total": 0,
				"mpppb_serve_protocol_errors_total":   0,
			} {
				if v := reg.Counter(name, "").Value(); v != wantV {
					t.Errorf("%s = %d, want %d", name, v, wantV)
				}
			}
			if v := reg.Gauge("mpppb_serve_active_clients", "").Value(); v != 0 {
				t.Errorf("active clients gauge %d after shutdown, want 0", v)
			}
			if v := reg.Histogram("mpppb_serve_batch_seconds", "", nil).Count(); v != wantBatches {
				t.Errorf("batch latency histogram holds %d samples, want %d", v, wantBatches)
			}
		})
	}
}

// TestServeShutdownMidBatchSoak pins the shutdown race surface: clients
// stream batches continuously while Shutdown fires mid-batch with a drain
// timeout too short to let them finish, so the drain-deadline force-close
// races the handlers' own failConn/removeConn teardown. Several goroutines
// call Shutdown and Close concurrently and repeatedly; under -race this
// must produce no double-close panic, no write-after-close data race on
// the buffered writers, and every caller must return only after the
// server has fully quiesced.
func TestServeShutdownMidBatchSoak(t *testing.T) {
	const (
		clients  = 8
		stoppers = 4
	)
	params := testParams()
	reg := obs.NewRegistry()
	srv, err := Start(Config{
		Addr: "127.0.0.1:0", Sets: 64, Params: params,
		Shards: 2, Metrics: reg,
		// Short enough that in-flight batches are still streaming when the
		// force-close fires.
		DrainTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := Annotate(newTestGen(7777), 4_000, 64, 4, params)

	started := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), uint64(i)+1)
			if err != nil {
				// The server may already be shutting down; that's a valid
				// interleaving, not a failure.
				started <- struct{}{}
				return
			}
			defer c.Close()
			started <- struct{}{}
			var advice []core.Advice
			for {
				// Loop the stream until the shutdown severs the connection;
				// every error past this point is the expected teardown.
				for off := 0; off < len(events); off += 256 {
					end := min(off+256, len(events))
					if advice, err = c.Advise(events[off:end], advice); err != nil {
						return
					}
				}
			}
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-started
	}

	// Concurrent stoppers: mixed Shutdown and Close, plus repeat calls.
	// Every one must block until teardown is complete and then return.
	var stopWG sync.WaitGroup
	for i := 0; i < stoppers; i++ {
		stopWG.Add(1)
		go func(i int) {
			defer stopWG.Done()
			if i%2 == 0 {
				srv.Shutdown()
			} else {
				srv.Close()
			}
			srv.Shutdown() // repeat calls are no-ops that still wait
		}(i)
	}

	stopDone := make(chan struct{})
	go func() { stopWG.Wait(); close(stopDone) }()
	select {
	case <-stopDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown callers did not return: teardown deadlocked")
	}
	wg.Wait()

	if v := reg.Gauge("mpppb_serve_active_clients", "").Value(); v != 0 {
		t.Errorf("active clients gauge %d after shutdown, want 0", v)
	}
	if err := srv.Err(); err != nil {
		t.Errorf("server recorded error: %v", err)
	}
}

// TestServeSoakStatus drives a handful of concurrent clients with the
// status manifest attached and requires one completed cell per
// connection.
func TestServeSoakStatus(t *testing.T) {
	const clients = 8
	params := testParams()
	st := obs.NewRunStatus("serve-test")
	srv, err := Start(Config{
		Addr: "127.0.0.1:0", Sets: 64, Params: params,
		Shards: 2, Metrics: obs.NewRegistry(), Status: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := Annotate(newTestGen(4242), 2_000, 64, 4, params)

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replayThrough(t, srv.Addr(), uint64(i), events, 512)
		}(i)
	}
	wg.Wait()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if len(snap.Cells) != clients {
		t.Fatalf("%d status cells, want %d", len(snap.Cells), clients)
	}
	for key, state := range snap.Cells {
		if state != obs.CellOK {
			t.Fatalf("cell %s finished %q", key, state)
		}
	}
}
