// Package parallel is the worker-pool engine behind the experiment
// drivers: it fans independent runs across a bounded number of goroutines
// while keeping results in input order, so a parallel sweep merges into
// byte-identical tables to a serial one.
//
// The design constraints, in order of importance:
//
//   - Determinism. Map collects results indexed by input position, never by
//     completion order, and with workers == 1 it degenerates to a plain
//     serial loop on the calling goroutine. Callers that also keep their
//     per-item arithmetic independent (as every simulator run in this
//     repository does) therefore produce bit-identical output at any -j.
//   - Liveness. A panicking worker is captured and surfaced as a
//     *PanicError rather than tearing down the process or deadlocking the
//     dispatcher; cancellation stops dispatch of new items promptly.
//   - Boundedness. At most `workers` items are in flight; the pool is
//     sized by the -j flag of the cmd tools (SetDefault), defaulting to
//     runtime.GOMAXPROCS(0).
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// defaultWorkers holds the pool size used when Map is called with
// workers <= 0; zero means "use GOMAXPROCS at call time".
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a Map
// call does not specify one. n <= 0 restores the GOMAXPROCS default. The
// cmd tools call this once from their -j flag before any experiment runs.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the current default worker count (at least 1).
func Default() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic recovered from a worker so it can travel
// through the ordinary error return instead of killing the process from a
// goroutine the caller never sees.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v\n%s", e.Value, e.Stack)
}

// Map runs fn(i) for every i in [0, n) across a pool of workers and
// returns the results in input order. workers <= 0 uses Default();
// workers == 1 runs serially on the calling goroutine. The first error —
// "first" by input index, not completion time, so the reported error is
// deterministic — cancels dispatch of not-yet-started items and is
// returned. A panic inside fn is returned as a *PanicError.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// ForEach is Map for functions with no result value.
func ForEach(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// MapCtx is Map with a context: when ctx is cancelled, no new items are
// dispatched, in-flight items finish, and ctx's error is returned (unless
// an item error with a smaller input index is already recorded).
func MapCtx[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results, _, err := MapErr(ctx, RunOpts{Workers: workers}, n, fn)
	return results, err
}

// RunOpts configures MapErr. The zero value reproduces MapCtx exactly:
// default pool width, fail-fast.
type RunOpts struct {
	// Workers is the pool width; <= 0 uses Default(), 1 runs serially on
	// the calling goroutine.
	Workers int
	// KeepGoing runs every item even after failures, reporting them
	// per-item instead of cancelling the pool — graceful degradation for
	// drivers that can emit partial results with explicit failure markers.
	KeepGoing bool
}

// MapErr is the full-control variant of MapCtx: it returns per-item errors
// alongside the results, and RunOpts adds keep-going failure handling.
//
// The returned slices always have length n; items never dispatched (after
// cancellation or a fail-fast error) keep zero values and nil errors. The
// final error is the run-level verdict: ctx's error on cancellation, or —
// without KeepGoing — the first item error by input index (deterministic,
// like MapCtx). With KeepGoing, item failures are reported only per-item
// and the final error is nil unless ctx was cancelled.
func MapErr[T any](ctx context.Context, o RunOpts, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	if n <= 0 {
		return nil, nil, ctx.Err()
	}
	workers := o.Workers
	if workers <= 0 {
		workers = Default()
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)

	// Queue accounting: all n items are enqueued up front; run() moves one
	// from queued to in-flight. Items never dispatched (cancellation or
	// fail-fast) are drained from the gauge on return.
	mQueueDepth.Add(int64(n))
	var dispatched atomic.Int64
	defer func() { mQueueDepth.Add(dispatched.Load() - int64(n)) }()
	run := func(ctx context.Context, i int) (T, error) {
		dispatched.Add(1)
		mQueueDepth.Add(-1)
		mTasksStarted.Inc()
		mInflight.Inc()
		t0 := time.Now()
		v, err := call(ctx, fn, i)
		mInflight.Dec()
		mTaskSeconds.Observe(time.Since(t0).Seconds())
		if err != nil {
			mTasksFailed.Inc()
		} else {
			mTasksCompleted.Inc()
		}
		return v, err
	}

	if workers == 1 {
		// Degenerate serial path: same goroutine, same call order as a
		// plain loop, so -j 1 reproduces pre-pool behavior exactly.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, errs, err
			}
			results[i], errs[i] = run(ctx, i)
			if errs[i] != nil && !o.KeepGoing {
				return results, errs, errs[i]
			}
		}
		if o.KeepGoing {
			if err := ctx.Err(); err != nil {
				return results, errs, err
			}
		}
		return results, errs, nil
	}

	// Workers pull the next input index from a shared counter; each result
	// lands in its input slot, so collection order is independent of
	// completion order.
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || poolCtx.Err() != nil {
					return
				}
				results[i], errs[i] = run(poolCtx, i)
				if errs[i] != nil && !o.KeepGoing {
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	if !o.KeepGoing {
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				return results, errs, errs[i]
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return results, errs, err
	}
	return results, errs, nil
}

// call invokes fn with panic capture.
func call[T any](ctx context.Context, fn func(ctx context.Context, i int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}
