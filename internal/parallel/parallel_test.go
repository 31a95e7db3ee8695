package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// mapN runs fn over [0, n) on workers goroutines, fail-fast, under ctx.
func mapN(ctx context.Context, workers, n int, fn func(i int) (int, error)) ([]int, error) {
	out, _, err := MapErr(ctx, RunOpts{Workers: workers}, n, func(_ context.Context, i int) (int, error) {
		return fn(i)
	})
	return out, err
}

// TestMapOrdering: results must land in input order even when later items
// finish first (earlier items sleep longer).
func TestMapOrdering(t *testing.T) {
	const n = 64
	out, err := mapN(context.Background(), 8, n, func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSerialDegenerate: workers == 1 must run items strictly in order
// on the calling goroutine, reproducing a plain serial loop.
func TestMapSerialDegenerate(t *testing.T) {
	caller := goroutineID()
	var order []int
	_, err := mapN(context.Background(), 1, 10, func(i int) (int, error) {
		if goroutineID() != caller {
			t.Error("workers=1 ran on a different goroutine")
		}
		order = append(order, i) // no lock: must be single-threaded
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v, want ascending", order)
		}
	}
}

// TestMapPanicSurfacesAsError: a panic in one worker must come back as a
// *PanicError from MapErr, not deadlock the pool or kill the process.
func TestMapPanicSurfacesAsError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := mapN(context.Background(), workers, 32, func(i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic value %v, stack len %d", workers, pe.Value, len(pe.Stack))
		}
	}
}

// TestMapErrorDeterministic: when several items fail, MapErr must report
// the error of the smallest input index, regardless of completion order.
func TestMapErrorDeterministic(t *testing.T) {
	err2 := errors.New("err2")
	err5 := errors.New("err5")
	for trial := 0; trial < 20; trial++ {
		_, err := mapN(context.Background(), 4, 8, func(i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(2 * time.Millisecond) // finishes after index 5's error
				return 0, err2
			case 5:
				return 0, err5
			}
			return i, nil
		})
		if !errors.Is(err, err2) {
			t.Fatalf("trial %d: err = %v, want err2 (smallest failing index)", trial, err)
		}
	}
}

// TestMapErrorCancelsDispatch: after an item fails, not-yet-started items
// must not be dispatched.
func TestMapErrorCancelsDispatch(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := mapN(context.Background(), 2, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d items started after early error; dispatch not cancelled", n)
	}
}

// TestMapCtxCancelMidBatch: cancelling the context stops dispatch and
// returns ctx.Err().
func TestMapCtxCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := mapN(ctx, 4, 1000, func(i int) (int, error) {
		if started.Add(1) == 10 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 500 {
		t.Fatalf("%d items started after cancel", n)
	}
}

// TestMapEmptyAndDefaults: n <= 0 is a no-op; workers <= 0 runs up to
// GOMAXPROCS items at once, and never more.
func TestMapEmptyAndDefaults(t *testing.T) {
	out, err := mapN(context.Background(), 4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty MapErr: out=%v err=%v", out, err)
	}
	width := runtime.GOMAXPROCS(0)
	var inflight, peak atomic.Int64
	out, err = mapN(context.Background(), 0, 4*width, func(i int) (int, error) {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return i, nil
	})
	if err != nil || len(out) != 4*width {
		t.Fatalf("default-width MapErr: %d results, err=%v", len(out), err)
	}
	if p := peak.Load(); p > int64(width) {
		t.Fatalf("%d items in flight at width 0, want at most GOMAXPROCS (%d)", p, width)
	}
}

// goroutineID extracts the current goroutine's numeric id from the first
// line of its stack trace ("goroutine N [running]:"). Test-only.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	fields := strings.Fields(string(buf))
	if len(fields) < 2 {
		return string(buf)
	}
	return fields[1]
}
