package experiment

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
)

// Options configures how a Spec evaluation dispatches its scenario batch
// and what telemetry the runs carry. The zero value runs sequentially
// with instrumentation disabled — exactly the behaviour of the original
// non-Ctx entry points.
type Options struct {
	// Executor dispatches the batch when non-nil (e.g. runner.Pool's
	// Executor for the full worker-pool machinery). It takes precedence
	// over Parallel.
	Executor Executor
	// Parallel fans the batch out over this many goroutines when > 1 and
	// Executor is nil — a dependency-free fan-out for callers that don't
	// need the runner pool's statistics. Results are slotted by batch
	// index, so assembled figures are identical at any width.
	Parallel int
	// Metrics, when non-nil, is attached to every scenario in the batch
	// (see Scenario.Metrics); the runs accumulate into shared series.
	Metrics *metrics.Registry
	// LBTimeline, when non-nil, is attached to every scenario in the
	// batch (see Scenario.LBTimeline).
	LBTimeline *metrics.LBTimeline
	// Progress, when non-nil, receives batch lifecycle notifications for
	// the in-package dispatch paths (sequential and Parallel). When
	// Executor is set the executor owns notification instead — runner.Pool
	// notifies through its own Progress field — so a batch is never
	// double-counted.
	Progress Progress
}

// run instruments the batch per the options and dispatches it.
func (o Options) run(ctx context.Context, batch []Scenario) ([]Result, error) {
	if o.Metrics != nil || o.LBTimeline != nil {
		for i := range batch {
			if o.Metrics != nil && batch[i].Metrics == nil {
				batch[i].Metrics = o.Metrics
			}
			if o.LBTimeline != nil && batch[i].LBTimeline == nil {
				batch[i].LBTimeline = o.LBTimeline
			}
		}
	}
	// A job trace riding the context reaches every scenario of every
	// batch the Spec methods dispatch, whatever executor runs them; each
	// scenario takes its own Chrome-trace thread row.
	if tr := obs.FromContext(ctx); tr != nil {
		for i := range batch {
			if batch[i].Obs == nil {
				batch[i].Obs = tr
				batch[i].ObsTID = tr.NextTID()
			}
		}
	}
	switch {
	case o.Executor != nil:
		return o.Executor(ctx, batch)
	case o.Parallel > 1:
		if o.Progress != nil {
			o.Progress.BatchQueued(len(batch))
		}
		return runParallel(ctx, o.Parallel, batch, o.Progress)
	case o.Progress != nil:
		o.Progress.BatchQueued(len(batch))
		out := make([]Result, len(batch))
		for i, s := range batch {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o.Progress.ScenarioStarted(i)
			t0 := time.Now()
			out[i] = Run(s)
			o.Progress.ScenarioDone(i, time.Since(t0), out[i].Events)
		}
		return out, nil
	default:
		return RunAll(ctx, batch)
	}
}

// runParallel executes the batch on a bounded goroutine fan-out. It is
// the in-package counterpart of runner.Pool (which cannot be imported
// here — runner already depends on experiment): index-slotted results,
// cooperative cancellation, no statistics.
func runParallel(ctx context.Context, workers int, batch []Scenario, prog Progress) ([]Result, error) {
	if workers > len(batch) {
		workers = len(batch)
	}
	out := make([]Result, len(batch))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) || ctx.Err() != nil {
					return
				}
				if prog != nil {
					prog.ScenarioStarted(i)
				}
				t0 := time.Now()
				out[i] = Run(batch[i])
				if prog != nil {
					prog.ScenarioDone(i, time.Since(t0), out[i].Events)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
