package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
)

// ScenarioStats is one scenario's execution record: where it sat in the
// batch, how long it took in real time, and how many simulation events it
// executed.
type ScenarioStats struct {
	Index  int
	Wall   time.Duration
	Events uint64
}

// BatchStats aggregates one batch.
type BatchStats struct {
	// Wall is the real elapsed time of the whole batch (not the sum of
	// per-scenario walls — with W workers it is roughly that sum / W).
	Wall time.Duration
	// Events is the total number of simulation events executed.
	Events uint64
	// Scenarios holds the per-scenario records in batch order.
	Scenarios []ScenarioStats
}

// Pool runs experiment scenario batches on a bounded worker pool and
// accumulates throughput statistics across batches. The zero value is
// ready to use and selects GOMAXPROCS workers. A Pool may be shared: its
// accumulators are mutex-protected, and each RunBatch call fans out
// independently.
type Pool struct {
	// Workers bounds the number of concurrently executing scenarios;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives pool throughput series: scenarios
	// completed and in flight, simulation events executed, per-scenario
	// wall time, and queue wait (batch submission to execution start).
	// Nil disables them.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives batch lifecycle notifications
	// (telemetry's live /api/run view). Callbacks arrive from worker
	// goroutines; implementations must be concurrency-safe.
	Progress experiment.Progress

	mu        sync.Mutex
	wall      time.Duration
	events    uint64
	scenarios int
}

// RunBatch executes the batch and returns results slotted by batch index
// (results[i] corresponds to batch[i] at any worker count) together with
// the batch's execution statistics. On error or cancellation the partial
// results are discarded and only the error is returned; completed
// scenarios still count toward the pool's accumulated totals.
func (p *Pool) RunBatch(ctx context.Context, batch []experiment.Scenario) ([]experiment.Result, *BatchStats, error) {
	// Registration is idempotent, so re-resolving handles per batch keeps
	// the handles off the Pool struct while sharing series across batches.
	var (
		mScenarios = p.Metrics.Counter("runner_scenarios_total",
			"Scenarios completed by the pool.")
		mEvents = p.Metrics.Counter("runner_sim_events_total",
			"Simulation events executed across pool scenarios.")
		mWall = p.Metrics.Histogram("runner_scenario_wall_seconds",
			"Real seconds per scenario.", metrics.DefTimeBuckets())
		mQueue = p.Metrics.Histogram("runner_queue_wait_seconds",
			"Real seconds a scenario waited for a pool worker.", metrics.DefTimeBuckets())
		mInflight = p.Metrics.Gauge("runner_scenarios_in_flight",
			"Scenarios currently executing on pool workers.")
	)
	stats := &BatchStats{Scenarios: make([]ScenarioStats, len(batch))}
	prog := p.Progress
	if prog != nil {
		prog.BatchQueued(len(batch))
	}
	// A job trace on the context gives every scenario its own span row:
	// pool queue wait and execution, named after the scenario's axes so
	// the Chrome waterfall reads without cross-referencing rows.json.
	tr := obs.FromContext(ctx)
	start := time.Now()
	results, err := Map(ctx, p.Workers, batch, func(_ context.Context, i int, s experiment.Scenario) (experiment.Result, error) {
		t0 := time.Now()
		queueWait := t0.Sub(start)
		mQueue.Observe(queueWait.Seconds())
		if tr != nil {
			if s.Obs == nil {
				s.Obs = tr
				s.ObsTID = tr.NextTID()
			}
			tr.NameTID(s.ObsTID, fmt.Sprintf("[%d] %s cores=%d %s seed=%d",
				i, s.App, s.Cores, s.Strategy, s.Seed))
			tr.AddNow(obs.CatScenario, "queue-wait", s.ObsTID, queueWait)
		}
		runSpan := s.Obs.Start(obs.CatScenario, "run", s.ObsTID)
		if prog != nil {
			prog.ScenarioStarted(i)
		}
		mInflight.Add(1)
		r := experiment.Run(s)
		mInflight.Add(-1)
		runSpan.End("events", r.Events, "migrations", r.Migrations, "lb_steps", r.LBSteps)
		wall := time.Since(t0)
		stats.Scenarios[i] = ScenarioStats{Index: i, Wall: wall, Events: r.Events}
		mScenarios.Inc()
		mEvents.Add(r.Events)
		mWall.Observe(wall.Seconds())
		if prog != nil {
			prog.ScenarioDone(i, wall, r.Events)
		}
		return r, nil
	})
	stats.Wall = time.Since(start)
	for _, s := range stats.Scenarios {
		stats.Events += s.Events
	}
	p.mu.Lock()
	p.wall += stats.Wall
	p.events += stats.Events
	for _, s := range stats.Scenarios {
		if s.Wall > 0 {
			p.scenarios++
		}
	}
	p.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// Executor adapts the pool to the experiment package's Executor hook, so
// Evaluate/Sweep/Compare batches fan out over the pool's workers.
func (p *Pool) Executor() experiment.Executor {
	return func(ctx context.Context, batch []experiment.Scenario) ([]experiment.Result, error) {
		results, _, err := p.RunBatch(ctx, batch)
		return results, err
	}
}

// WorkerCount reports the effective worker bound (GOMAXPROCS when
// Workers <= 0).
func (p *Pool) WorkerCount() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// Totals reports the pool's accumulated batch wall-clock, executed
// simulation events and completed scenario count across all RunBatch calls.
func (p *Pool) Totals() (wall time.Duration, events uint64, scenarios int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wall, p.events, p.scenarios
}
