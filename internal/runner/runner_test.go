package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesItemOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(context.Background(), 8, items, func(_ context.Context, i, v int) (int, error) {
		// Stagger completion so late items finish before early ones.
		time.Sleep(time.Duration(100-v) * time.Microsecond)
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d (results must be slotted by index, not completion order)", i, v, i*i)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	items := make([]int, 50)
	_, err := Map(context.Background(), workers, items, func(_ context.Context, i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent executions, want <= %d", p, workers)
	}
}

func TestMapFirstErrorStopsBatch(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	items := make([]int, 1000)
	_, err := Map(context.Background(), 4, items, func(_ context.Context, i, _ int) (int, error) {
		ran.Add(1)
		if i == 5 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n == int64(len(items)) {
		t.Fatal("error did not stop the batch early")
	}
}

// TestMapPanicIsItemError: a panicking item fails the batch with an
// error naming the item and the panic value; the process survives.
func TestMapPanicIsItemError(t *testing.T) {
	got, err := Map(context.Background(), 2, make([]int, 8), func(_ context.Context, i, _ int) (int, error) {
		if i == 5 {
			panic("boom at 5")
		}
		return i, nil
	})
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Index != 5 || perr.Value != "boom at 5" {
		t.Fatalf("err = %#v, want a PanicError for item 5 carrying the panic value", err)
	}
	if got != nil {
		t.Fatal("panicked batch returned partial results")
	}
}

func TestMapCancellationStopsBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	items := make([]int, 1000)
	done := make(chan struct{})
	var got []int
	var err error
	go func() {
		defer close(done)
		got, err = Map(ctx, 2, items, func(_ context.Context, i, _ int) (int, error) {
			ran.Add(1)
			once.Do(func() { close(release) }) // first item is underway
			time.Sleep(100 * time.Microsecond)
			return 1, nil
		})
	}()
	<-release
	cancel()
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got != nil {
		t.Fatal("cancelled batch returned partial results")
	}
	if n := ran.Load(); n == int64(len(items)) {
		t.Fatal("cancellation did not stop the batch early")
	}
}

func TestMapPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, 4, make([]int, 100), func(_ context.Context, i, _ int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers check the context before claiming, so at most a handful of
	// items can slip through the initial race; the batch must not run.
	if n := ran.Load(); n > 4 {
		t.Fatalf("%d items ran under a pre-cancelled context", n)
	}
}

func TestMapEmptyBatch(t *testing.T) {
	got, err := Map(context.Background(), 4, nil, func(_ context.Context, i, _ int) (int, error) {
		t.Fatal("fn called for empty batch")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v for empty batch", got, err)
	}
}

// Regression: the empty-batch fast path used to return a non-nil results
// slice alongside the context error, contradicting the documented "on any
// error the partial results are discarded" contract.
func TestMapEmptyBatchCancelledContextReturnsNilResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := Map(ctx, 4, nil, func(_ context.Context, i, _ int) (int, error) {
		t.Fatal("fn called for empty batch")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got != nil {
		t.Fatalf("got %v alongside an error; results must be nil on every error path", got)
	}
}

func TestMapDefaultsWorkers(t *testing.T) {
	// workers <= 0 must still run everything (GOMAXPROCS default).
	got, err := Map(context.Background(), 0, []int{1, 2, 3}, func(_ context.Context, i, v int) (int, error) {
		return v + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+2 {
			t.Fatalf("results = %v", got)
		}
	}
}
