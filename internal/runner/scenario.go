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

// Progress is the pool's scenario account: scenarios queued, finished
// and executing, and the simulation events the finished ones executed.
// The pool keeps one, summed over every batch it has run, and hands a
// copy of it to OnProgress on every change; RunBatch returns one for its
// own batch. The JSON names are those of /api/v1/run and a service
// job's progress, which serve it as is.
type Progress struct {
	ScenariosTotal    int    `json:"scenarios_total"`
	ScenariosDone     int    `json:"scenarios_done"`
	ScenariosInFlight int    `json:"scenarios_in_flight"`
	Events            uint64 `json:"events_total"`
}

func (p *Progress) add(d Progress) {
	p.ScenariosTotal += d.ScenariosTotal
	p.ScenariosDone += d.ScenariosDone
	p.ScenariosInFlight += d.ScenariosInFlight
	p.Events += d.Events
}

// Pool runs experiment scenario batches on a bounded worker pool and
// accounts for every scenario it runs. The zero value is ready to use
// and selects GOMAXPROCS workers. A Pool may be shared: its account is
// mutex-protected, and each RunBatch call fans out independently.
type Pool struct {
	// Workers bounds the number of concurrently executing scenarios;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives pool throughput series: scenarios
	// completed and in flight, simulation events executed, per-scenario
	// wall time, and queue wait (batch submission to execution start).
	// Nil disables them.
	Metrics *metrics.Registry
	// OnProgress, when non-nil, is handed the pool's account after every
	// change: a batch queued, a scenario started, a scenario finished. It
	// runs with the pool's lock held, so snapshots arrive in the order
	// they were taken and a reader keeps the last one it was handed; it
	// must return promptly and must not call back into the pool.
	OnProgress func(Progress)

	mu   sync.Mutex
	acct Progress
	wall time.Duration
}

// ScenarioWall registers (or finds) the per-scenario wall-time histogram
// the pool records in reg — the distribution /api/v1/run serves beside
// the pool's account.
func ScenarioWall(reg *metrics.Registry) *metrics.Histogram {
	return reg.Histogram("runner_scenario_wall_seconds",
		"Real seconds per scenario.", metrics.DefTimeBuckets())
}

// record applies one change to the pool's account and to the batch's,
// and announces the pool's.
func (p *Pool) record(batch *Progress, d Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acct.add(d)
	batch.add(d)
	if p.OnProgress != nil {
		p.OnProgress(p.acct)
	}
}

// RunBatch executes the batch and returns results slotted by batch index
// (results[i] corresponds to batch[i] at any worker count) together with
// the batch's own account. On error or cancellation the partial results
// are discarded and only the error is returned; completed scenarios
// still count toward the pool's account.
func (p *Pool) RunBatch(ctx context.Context, batch []experiment.Scenario) ([]experiment.Result, Progress, error) {
	// Registration is idempotent, so re-resolving handles per batch keeps
	// the handles off the Pool struct while sharing series across batches.
	var (
		mScenarios = p.Metrics.Counter("runner_scenarios_total",
			"Scenarios completed by the pool.")
		mEvents = p.Metrics.Counter("runner_sim_events_total",
			"Simulation events executed across pool scenarios.")
		mWall  = ScenarioWall(p.Metrics)
		mQueue = p.Metrics.Histogram("runner_queue_wait_seconds",
			"Real seconds a scenario waited for a pool worker.", metrics.DefTimeBuckets())
		mInflight = p.Metrics.Gauge("runner_scenarios_in_flight",
			"Scenarios currently executing on pool workers.")
	)
	var acct Progress
	if len(batch) > 0 {
		p.record(&acct, Progress{ScenariosTotal: len(batch)})
	}
	// Workers that no scenario of the batch would keep busy go to the
	// scenarios as shards instead (experiment.PoolShards decides which
	// scenarios take them). Each worker gets its own copy of a scenario,
	// so the caller's batch keeps its Shards.
	perScenario := p.WorkerCount() / max(len(batch), 1)
	// A job trace on the context gives every scenario its own span row:
	// pool queue wait and execution, named after the scenario's axes so
	// the Chrome waterfall reads without cross-referencing rows.json.
	tr := obs.FromContext(ctx)
	start := time.Now()
	results, err := Map(ctx, p.Workers, batch, func(_ context.Context, i int, s experiment.Scenario) (experiment.Result, error) {
		s.Shards = experiment.PoolShards(s, perScenario)
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
		p.record(&acct, Progress{ScenariosInFlight: 1})
		mInflight.Add(1)
		r := experiment.Run(s)
		mInflight.Add(-1)
		runSpan.End("events", r.Events, "migrations", r.Migrations, "lb_steps", r.LBSteps)
		mScenarios.Inc()
		mEvents.Add(r.Events)
		mWall.Observe(time.Since(t0).Seconds())
		p.record(&acct, Progress{ScenariosDone: 1, ScenariosInFlight: -1, Events: r.Events})
		return r, nil
	})
	p.mu.Lock()
	p.wall += time.Since(start)
	p.mu.Unlock()
	if err != nil {
		return nil, Progress{}, err
	}
	return results, acct, nil
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

// Totals reports the pool's account across all RunBatch calls and their
// accumulated wall-clock (batch spans, not summed scenario times).
func (p *Pool) Totals() (Progress, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acct, p.wall
}
