package runner

import (
	"context"
	"errors"
	"math"
	"testing"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
)

// evalsEqual compares Eval rows field by field, treating NaN as equal to
// NaN (AppNone rows have no application wall time).
func evalsEqual(a, b experiment.Eval) bool {
	feq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return a.App == b.App && a.Cores == b.Cores &&
		feq(a.BaseWallNoLB, b.BaseWallNoLB) && feq(a.BaseWallLB, b.BaseWallLB) && feq(a.BGBase, b.BGBase) &&
		feq(a.PenAppNoLB, b.PenAppNoLB) && feq(a.PenAppLB, b.PenAppLB) &&
		feq(a.PenBGNoLB, b.PenBGNoLB) && feq(a.PenBGLB, b.PenBGLB) &&
		feq(a.PowerBase, b.PowerBase) && feq(a.PowerNoLB, b.PowerNoLB) && feq(a.PowerLB, b.PowerLB) &&
		feq(a.EnergyOvhNoLB, b.EnergyOvhNoLB) && feq(a.EnergyOvhLB, b.EnergyOvhLB) &&
		a.MigrationsLB == b.MigrationsLB && a.LBSteps == b.LBSteps
}

// TestParallelEvaluateMatchesSequential is the determinism contract behind
// the committed results/ tree: the Figure 2(a) batch run through an
// 8-worker pool must produce exactly the Eval rows of a sequential run.
func TestParallelEvaluateMatchesSequential(t *testing.T) {
	app := experiment.Jacobi2D
	cores := []int{4, 8}
	seeds := []int64{1, 2}
	const scale = 0.1

	spec := experiment.Spec{App: app, Cores: cores, Seeds: seeds, Scale: scale}
	seq, err := spec.Evaluate(context.Background(), experiment.Options{Executor: experiment.RunAll})
	if err != nil {
		t.Fatal(err)
	}
	pool := &Pool{Workers: 8}
	par, err := spec.Evaluate(context.Background(), experiment.Options{Executor: pool.Executor()})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d sequential vs %d parallel", len(seq), len(par))
	}
	for i := range seq {
		if !evalsEqual(seq[i], par[i]) {
			t.Fatalf("row %d differs:\nsequential: %+v\nparallel:   %+v", i, seq[i], par[i])
		}
	}
}

// TestParallelElasticityMatchesAcrossWorkerCounts pins the same contract
// for the elasticity batch behind the committed Figure 5 artifact: a
// preemption schedule — core revoked mid-run, replacement later — must
// produce bit-identical rows at every worker count.
func TestParallelElasticityMatchesAcrossWorkerCounts(t *testing.T) {
	app := experiment.Wave2D
	const cores, scale = 4, 0.25
	strategies := []experiment.StrategyKind{experiment.NoLB, experiment.Refine}
	seeds := []int64{1, 2}
	faults := experiment.Fig5Schedule(cores, scale)

	spec := experiment.Spec{App: app, Cores: []int{cores}, Strategies: strategies,
		Seeds: seeds, Scale: scale, Faults: faults}
	seq, err := spec.Elasticity(context.Background(), experiment.Options{Executor: experiment.RunAll})
	if err != nil {
		t.Fatal(err)
	}
	if seq[1].Evacuations == 0 {
		t.Fatal("schedule revoked nothing — the batch is not exercising elasticity")
	}
	for _, workers := range []int{1, 2, 8} {
		pool := &Pool{Workers: workers}
		par, err := spec.Elasticity(context.Background(), experiment.Options{Executor: pool.Executor()})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("%d workers: %d rows, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("%d workers: row %d differs:\nsequential: %+v\nparallel:   %+v", workers, i, seq[i], par[i])
			}
		}
	}
}

func TestRunBatchSlotsResultsByIndex(t *testing.T) {
	// Distinct seeds give distinct outcomes; each slot must hold its own.
	batch := []experiment.Scenario{
		{App: experiment.Wave2D, Cores: 4, Strategy: experiment.NoLB, Seed: 1, Scale: 0.1},
		{App: experiment.Wave2D, Cores: 4, Strategy: experiment.NoLB, Seed: 2, Scale: 0.1},
		{App: experiment.Wave2D, Cores: 4, Strategy: experiment.NoLB, Seed: 3, Scale: 0.1},
	}
	pool := &Pool{Workers: 3}
	got, stats, err := pool.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range batch {
		want := experiment.Run(s)
		if got[i].AppWall != want.AppWall || got[i].Events != want.Events {
			t.Fatalf("slot %d does not match its scenario: got wall %v, want %v", i, got[i].AppWall, want.AppWall)
		}
	}
	if stats.Events == 0 {
		t.Fatal("batch executed zero simulation events")
	}
	var sum uint64
	for i, s := range stats.Scenarios {
		if s.Events == 0 || s.Wall <= 0 {
			t.Fatalf("scenario %d has empty stats: %+v", i, s)
		}
		sum += s.Events
	}
	if sum != stats.Events {
		t.Fatalf("per-scenario events sum %d != batch total %d", sum, stats.Events)
	}
	wall, events, n := pool.Totals()
	if wall <= 0 || events != stats.Events || n != len(batch) {
		t.Fatalf("pool totals wall=%v events=%d scenarios=%d", wall, events, n)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := &Pool{Workers: 2}
	batch := experiment.EvaluateScenarios(experiment.Jacobi2D, []int{4}, []int64{1, 2, 3}, 0.1)
	results, _, err := pool.RunBatch(ctx, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("cancelled batch returned results")
	}
	// The same cancellation must surface through Spec.Evaluate.
	spec := experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1}, Scale: 0.1}
	if _, err := spec.Evaluate(ctx, experiment.Options{Executor: pool.Executor()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Spec.Evaluate err = %v, want context.Canceled", err)
	}
}

// TestPoolMetrics checks the pool's telemetry against its own stats: the
// scenario and event counters must agree with the batch totals, and the
// per-scenario wall and queue-wait histograms must have one sample per
// scenario. The batch runs in parallel while all scenarios share the
// registry, so -race doubles as the registry's integration concurrency
// test.
func TestPoolMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	pool := &Pool{Workers: 4, Metrics: reg}
	batch := []experiment.Scenario{
		{App: experiment.Wave2D, Cores: 4, Strategy: experiment.NoLB, Seed: 1, Scale: 0.1, Metrics: reg},
		{App: experiment.Wave2D, Cores: 4, Strategy: experiment.Refine, Seed: 2, Scale: 0.1, Metrics: reg},
		{App: experiment.Wave2D, Cores: 4, Strategy: experiment.Refine, Seed: 3, Scale: 0.1, Metrics: reg},
	}
	_, stats, err := pool.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Gather()
	get := func(name string) metrics.Series {
		t.Helper()
		for _, s := range snap.Series {
			if s.Name == name && len(s.Labels) == 0 {
				return s
			}
		}
		t.Fatalf("series %s not found", name)
		return metrics.Series{}
	}
	if got := get("runner_scenarios_total").Value; got != float64(len(batch)) {
		t.Errorf("runner_scenarios_total = %v, want %d", got, len(batch))
	}
	if got := get("runner_sim_events_total").Value; got != float64(stats.Events) {
		t.Errorf("runner_sim_events_total = %v, batch stats say %d", got, stats.Events)
	}
	for _, name := range []string{"runner_scenario_wall_seconds", "runner_queue_wait_seconds"} {
		if got := get(name).Count; got != uint64(len(batch)) {
			t.Errorf("%s count = %d, want %d", name, got, len(batch))
		}
	}
	// The scenarios carried the registry too: engine events flowed into
	// sim_events_total, and they must equal the runner's per-scenario sum.
	for _, s := range snap.Series {
		if s.Name == "sim_events_total" {
			if s.Value != float64(stats.Events) {
				t.Errorf("sim_events_total = %v, runner counted %d", s.Value, stats.Events)
			}
			return
		}
	}
	t.Error("sim_events_total not exported by instrumented scenarios")
}
