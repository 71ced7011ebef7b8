// Package runner executes batches of independent deterministic simulations
// concurrently. Every paper artifact is assembled from dozens of
// self-contained scenario runs — seeds x core counts x strategies — and
// each run builds its own engine, machine and RNG, so the runs are
// embarrassingly parallel. The pool here fans a batch out over a bounded
// set of worker goroutines while keeping the one property the committed
// results/ tree depends on: results are slotted by batch index, never by
// completion order, so the assembled output is bit-identical to a
// sequential run at any worker count.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn over every item on up to workers goroutines and returns the
// results in item order. workers <= 0 selects GOMAXPROCS. The index passed
// to fn is the item's position in items; results[i] is fn's value for
// items[i] regardless of which worker ran it or when it finished.
//
// The first error stops the batch: no new items are started, in-flight
// items run to completion, and that error is returned. Cancelling ctx
// likewise stops the batch and returns the context's error. On any error
// the partial results are discarded (a batch is only meaningful whole).
//
// A panic in fn is that item's error, a *PanicError: the caller cannot
// recover a panic on a worker goroutine, so without this one bad item
// would end the process instead of failing its batch.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		// Honor the contract even here: on error, no partial (or empty)
		// results escape.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return results, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next unclaimed item index
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if wctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				r, err := call(wctx, fn, i, items[i])
				if err != nil {
					fail(err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// PanicError is the error Map returns for an item whose fn panicked.
type PanicError struct {
	Index int // the item's position in items
	Value any // the value passed to panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: item %d panicked: %v", e.Index, e.Value)
}

// call runs fn on one item, recovering a panic as the item's error.
func call[T, R any](ctx context.Context, fn func(context.Context, int, T) (R, error), i int, item T) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p}
		}
	}()
	return fn(ctx, i, item)
}
