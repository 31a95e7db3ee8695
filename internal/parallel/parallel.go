// Package parallel is the worker pool behind RunCells, which runs every
// cell grid of the experiment drivers and batch tools: MapErr fans
// independent items across a bounded number of goroutines while keeping
// results in input order, so a parallel sweep merges into byte-identical
// tables to a serial one.
//
// The design constraints, in order of importance:
//
//   - Determinism. MapErr collects results indexed by input position,
//     never by completion order, and with one worker it degenerates to a
//     plain serial loop on the calling goroutine. Callers that also keep
//     their per-item arithmetic independent (as every simulator run in
//     this repository does) therefore produce bit-identical output at any
//     -j.
//   - Liveness. A panicking item is captured and surfaced as a
//     *PanicError rather than tearing down the process or deadlocking the
//     dispatcher; cancellation stops dispatch of new items promptly.
//   - Boundedness. At most RunOpts.Workers items are in flight. The width
//     is explicit: the cmd tools' -j reaches it as experiments.Run.Workers,
//     and 0 means runtime.GOMAXPROCS(0).
//
// Every item MapErr runs is one task in the mpppb_parallel_tasks_* metrics,
// and nothing else is, so those count grid cells.
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

// RunOpts configures MapErr. The zero value is GOMAXPROCS workers,
// fail-fast.
type RunOpts struct {
	// Workers is the pool width; <= 0 uses runtime.GOMAXPROCS(0), 1 runs
	// serially on the calling goroutine.
	Workers int
	// KeepGoing runs every item even after failures, reporting them
	// per-item instead of cancelling the pool — graceful degradation for
	// drivers that can emit partial results with explicit failure markers.
	KeepGoing bool
}

// MapErr runs fn(ctx, i) for every i in [0, n) across a pool of workers
// and returns the results and per-item errors in input order. A panic
// inside fn is returned as that item's *PanicError.
//
// The returned slices always have length n; items never dispatched (after
// cancellation or a fail-fast error) keep zero values and nil errors. The
// final error is the run-level verdict: ctx's error on cancellation, or —
// without KeepGoing — the first item error by input index, not completion
// time, so the reported error is deterministic; that first error also
// stops dispatch of not-yet-started items. With KeepGoing, item failures
// are reported only per item and the final error is nil unless ctx was
// cancelled.
func MapErr[T any](ctx context.Context, o RunOpts, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	if n <= 0 {
		return nil, nil, ctx.Err()
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
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
				// Check for cancellation before taking an index, never
				// after: an index taken is always run, so every index
				// below a failing one runs, and fail-fast reports the
				// smallest failing index whatever the completion order.
				if poolCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
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
