package experiment

import (
	"context"
	"strconv"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
)

// Options configures how a Spec evaluation dispatches its scenario batch
// and what telemetry the runs carry. The zero value runs sequentially
// with instrumentation disabled — exactly the behaviour of the original
// non-Ctx entry points.
type Options struct {
	// Executor dispatches the batch when non-nil (e.g. runner.Pool's
	// Executor for the worker pool, its statistics and its Progress
	// notifications); nil runs the batch sequentially through RunAll.
	Executor Executor
	// Metrics, when non-nil, is attached to every scenario in the batch
	// (see Scenario.Metrics). In a batch of more than one scenario each
	// scenario writes through a view labeling its series
	// scenario=<batch index>: no series has two writers, so the registry's
	// contents do not depend on how the batch was scheduled. A single
	// scenario's series stay unlabeled.
	Metrics *metrics.Registry
	// LBTimeline, when non-nil, is attached to every scenario in the
	// batch (see Scenario.LBTimeline).
	LBTimeline *metrics.LBTimeline
}

// run instruments the batch per the options and dispatches it.
func (o Options) run(ctx context.Context, batch []Scenario) ([]Result, error) {
	if o.Metrics != nil || o.LBTimeline != nil {
		for i := range batch {
			if o.Metrics != nil && batch[i].Metrics == nil {
				batch[i].Metrics = o.Metrics
				if len(batch) > 1 {
					batch[i].Metrics = o.Metrics.With(metrics.L("scenario", strconv.Itoa(i)))
				}
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
	if o.Executor != nil {
		return o.Executor(ctx, batch)
	}
	return RunAll(ctx, batch)
}
