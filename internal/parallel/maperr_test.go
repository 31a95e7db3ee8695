package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapErrNonRetryableFailsImmediately(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("deterministic failure")
	_, errs, err := MapErr(context.Background(),
		RunOpts{Workers: 1}, 1,
		func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			return 0, boom
		})
	if !errors.Is(err, boom) || !errors.Is(errs[0], boom) {
		t.Fatalf("err=%v errs=%v, want %v", err, errs, boom)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls for a non-retryable error, want 1", calls.Load())
	}
}

// TestMapErrRetriesAreBounded: the pool never retries — across workers
// and with KeepGoing, every failing item runs exactly once and keeps its
// own error.
func TestMapErrRetriesAreBounded(t *testing.T) {
	var calls [8]atomic.Int64
	_, errs, err := MapErr(context.Background(),
		RunOpts{Workers: 4, KeepGoing: true}, len(calls),
		func(_ context.Context, i int) (int, error) {
			calls[i].Add(1)
			return 0, fmt.Errorf("item %d always fails", i)
		})
	if err != nil {
		t.Fatalf("run-level err %v with KeepGoing, want nil", err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 || errs[i] == nil {
			t.Fatalf("item %d: %d calls, err %v; want 1 call and its error", i, n, errs[i])
		}
	}
}

func TestMapErrPanicNotRetried(t *testing.T) {
	var calls atomic.Int64
	_, errs, err := MapErr(context.Background(),
		RunOpts{Workers: 1}, 1,
		func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			panic("boom")
		})
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.As(errs[0], &pe) {
		t.Fatalf("err=%v, want *PanicError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls for a panic, want 1 (panics never retry)", calls.Load())
	}
}

// TestMapErrTimeoutExhaustedIsDeadlineExceeded: a caller's deadline that
// expires while an item runs reaches the item through its ctx and comes
// back as DeadlineExceeded, per item and for the run.
func TestMapErrTimeoutExhaustedIsDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, errs, err := MapErr(ctx, RunOpts{Workers: 1}, 1,
		func(ctx context.Context, i int) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("err=%v errs=%v, want DeadlineExceeded", err, errs)
	}
}

func TestMapErrKeepGoingCollectsAllErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		results, errs, err := MapErr(context.Background(),
			RunOpts{Workers: workers, KeepGoing: true}, 8,
			func(_ context.Context, i int) (int, error) {
				if i%2 == 1 {
					return 0, fmt.Errorf("cell %d failed", i)
				}
				return i * 10, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: run-level err %v with KeepGoing, want nil", workers, err)
		}
		for i := 0; i < 8; i++ {
			if i%2 == 1 {
				if errs[i] == nil {
					t.Fatalf("workers=%d: cell %d error lost", workers, i)
				}
			} else if errs[i] != nil || results[i] != i*10 {
				t.Fatalf("workers=%d: cell %d = (%d, %v), want (%d, nil)", workers, i, results[i], errs[i], i*10)
			}
		}
	}
}

func TestMapErrKeepGoingPanicBecomesCellError(t *testing.T) {
	results, errs, err := MapErr(context.Background(),
		RunOpts{Workers: 4, KeepGoing: true}, 6,
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("cell 3 exploded")
			}
			return i, nil
		})
	if err != nil {
		t.Fatalf("run-level err %v, want nil (pool must survive the panic)", err)
	}
	var pe *PanicError
	if !errors.As(errs[3], &pe) {
		t.Fatalf("cell 3 error %v, want *PanicError", errs[3])
	}
	for i := 0; i < 6; i++ {
		if i != 3 && (errs[i] != nil || results[i] != i) {
			t.Fatalf("cell %d = (%d, %v), want (%d, nil)", i, results[i], errs[i], i)
		}
	}
}

func TestMapErrCancelReportsCtxError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := MapErr(ctx, RunOpts{Workers: 1, KeepGoing: true}, 4,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want Canceled even with KeepGoing", err)
	}
}
