package serve

import (
	"errors"
	"sync"
	"testing"

	"mpppb/internal/core"
	"mpppb/internal/obs"
)

// BenchmarkServeAdvice measures the full serving path — wire encode,
// loopback TCP, the connection's read, apply under its shard's lock and
// write, wire decode — in events per second, on a 2-shard server:
//
//   - one-client: one client, 4096-event batches; an op is one batch.
//   - two-clients: clients 1 and 2, which hash to different shards, each
//     streaming 256-event batches in a closed loop at once, the shape of
//     bench/'s serve_2c; an op is one batch from each. This is the case
//     with two shards applying at once.
func BenchmarkServeAdvice(b *testing.B) {
	const sets, ways = 2048, 16
	params := core.SingleThreadParams()
	srv, err := Start(Config{
		Addr: "127.0.0.1:0", Sets: sets, Params: params,
		Shards: 2, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	dial := func(b *testing.B, id uint64) *Client {
		c, err := Dial(srv.Addr(), id)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	// stream sends n batches of size events from events, cycling; the
	// two-client case runs it on two goroutines at once.
	stream := func(c *Client, events []Event, size, n int) (err error) {
		var advice []core.Advice
		for i, off := 0, 0; i < n; i++ {
			if advice, err = c.Advise(events[off:off+size], advice); err != nil {
				return err
			}
			off = (off + size) % len(events)
		}
		return nil
	}

	b.Run("one-client", func(b *testing.B) {
		const batch = 4096
		events := Annotate(newTestGen(7), batch, sets, ways, params)
		c := dial(b, 1)
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		if err := stream(c, events, batch, b.N); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})

	b.Run("two-clients", func(b *testing.B) {
		const batch = 256
		// Each client cycles through 1024 batches of its own stream.
		streams := [][]Event{
			Annotate(newTestGen(7), 1024*batch, sets, ways, params),
			Annotate(newTestGen(8), 1024*batch, sets, ways, params),
		}
		clients := []*Client{dial(b, 1), dial(b, 2)}
		for _, c := range clients {
			defer c.Close()
		}
		errs := make([]error, len(streams))
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for i, events := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = stream(clients[i], events, batch, b.N)
			}()
		}
		wg.Wait()
		b.StopTimer()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(streams)*batch)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkApplyInline is the serving path's lower bound: the same batch
// through the advisor with no wire or scheduling in between.
func BenchmarkApplyInline(b *testing.B) {
	const sets, ways, batch = 2048, 16, 4096
	params := core.SingleThreadParams()
	events := Annotate(newTestGen(7), batch, sets, ways, params)
	adv := core.NewAdvisor(sets, params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range events {
			Apply(adv, ev)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
