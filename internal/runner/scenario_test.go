package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
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
	got, acct, err := pool.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	for i, s := range batch {
		want := experiment.Run(s)
		if got[i].AppWall != want.AppWall || got[i].Events != want.Events {
			t.Fatalf("slot %d does not match its scenario: got wall %v, want %v", i, got[i].AppWall, want.AppWall)
		}
		if got[i].Events == 0 {
			t.Fatalf("scenario %d executed zero simulation events", i)
		}
		events += got[i].Events
	}
	want := Progress{ScenariosTotal: len(batch), ScenariosDone: len(batch), Events: events}
	if acct != want {
		t.Fatalf("batch account %+v, want %+v", acct, want)
	}
	total, wall := pool.Totals()
	if wall <= 0 || total != want {
		t.Fatalf("pool totals %+v over %v, want %+v", total, wall, want)
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

// TestPoolMetrics checks the pool's telemetry against its own account: the
// scenario and event counters must agree with the batch's account, and the
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
	_, acct, err := pool.RunBatch(context.Background(), batch)
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
	if got := get("runner_sim_events_total").Value; got != float64(acct.Events) {
		t.Errorf("runner_sim_events_total = %v, batch account says %d", got, acct.Events)
	}
	if got := get("runner_scenarios_in_flight").Value; got != 0 {
		t.Errorf("runner_scenarios_in_flight = %v after the batch, want 0", got)
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
			if s.Value != float64(acct.Events) {
				t.Errorf("sim_events_total = %v, runner counted %d", s.Value, acct.Events)
			}
			return
		}
	}
	t.Error("sim_events_total not exported by instrumented scenarios")
}

// TestPoolShardsLoneLargeScenario runs a lone 256-core scenario through a
// two-worker pool as a batch of one. Without a metrics registry the pool
// gives it the idle worker as a second shard, and its Result and trace
// equal a Shards: 1 run's; with a registry it stays on one shard, and its
// snapshot, less the host-time series, equals a Shards: 1 run's byte for
// byte. Either way the caller's batch keeps its Shards. On two shards the
// coordinator runs at most a fifth of the events merged: an LB step holds
// the run sequential only until its placements are final, so the resume
// wave and the next iteration run in parallel windows (a step held until
// the last PE resumed ran 24.7% merged).
func TestPoolShardsLoneLargeScenario(t *testing.T) {
	pool := &Pool{Workers: 2}
	type outcome struct {
		shards any
		events uint64
		merged uint64
		res    string
		segs   []trace.Segment
		snap   []byte
	}
	run := func(shards int, reg *metrics.Registry) outcome {
		tr := obs.NewTrace("pool-shards", nil)
		rec := trace.NewRecorder()
		s := experiment.Scenario{
			App: experiment.Wave2D, Cores: 256, Strategy: experiment.Diffusion, BG: experiment.BGWave2D,
			Seed: 3, Scale: 0.1, SyncEvery: 5, CharesPerCore: 4,
			Net:    xnet.Config{DropPct: 2, StragglerNodes: []int{3}, StragglerFactor: 4, Seed: 3},
			Shards: shards, Metrics: reg, Trace: rec,
		}
		batch := []experiment.Scenario{s}
		results, _, err := pool.RunBatch(obs.NewContext(context.Background(), tr), batch)
		if err != nil {
			t.Fatal(err)
		}
		if batch[0].Shards != shards {
			t.Fatalf("the pool changed the caller's batch: Shards %d -> %d", shards, batch[0].Shards)
		}
		o := outcome{res: fmt.Sprintf("%+v", results[0]), segs: rec.Segments()}
		for _, sp := range tr.Spans() {
			if sp.Cat == obs.CatSim && sp.Name == "sim-drive" {
				o.shards = sp.Args["shards"]
				o.events, _ = sp.Args["events"].(uint64)
				var ok bool
				if o.merged, ok = sp.Args["merged_events"].(uint64); !ok {
					t.Errorf("sim-drive span args %v carry no merged_events count", sp.Args)
				}
			}
		}
		if reg != nil {
			if o.snap, err = json.Marshal(experiment.WithoutHostTime(reg.Gather())); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	one := run(1, metrics.NewRegistry())
	if one.shards != 1 {
		t.Fatalf("Shards: 1 ran on %v shards", one.shards)
	}
	pooled := run(0, nil)
	if pooled.shards != 2 {
		t.Fatalf("lone 256-core scenario on two workers ran on %v shards, want 2", pooled.shards)
	}
	if pooled.res != one.res {
		t.Errorf("Result differs from one shard:\n got %s\nwant %s", pooled.res, one.res)
	}
	if !slices.Equal(pooled.segs, one.segs) {
		t.Errorf("trace differs from one shard (%d segments, want %d)", len(pooled.segs), len(one.segs))
	}
	if pooled.events == 0 || 5*pooled.merged > pooled.events {
		t.Errorf("%d of %d events ran merged on two shards, want at most a fifth", pooled.merged, pooled.events)
	}
	if one.merged != 0 {
		t.Errorf("one shard ran %d events merged, want 0", one.merged)
	}
	pooledReg := run(0, metrics.NewRegistry())
	if pooledReg.shards != 1 {
		t.Fatalf("lone scenario with a registry ran on %v shards, want 1", pooledReg.shards)
	}
	if pooledReg.res != one.res {
		t.Errorf("Result with a registry differs from one shard:\n got %s\nwant %s", pooledReg.res, one.res)
	}
	if !bytes.Equal(pooledReg.snap, one.snap) {
		t.Errorf("metrics snapshot differs from one shard:\n got %s\nwant %s", pooledReg.snap, one.snap)
	}
}

// TestPoolKernelWorkerLoneScenario runs a lone Mol3D scenario below 256
// cores through the pool. On two workers the pool gives it a kernel
// worker instead of a shard, and its Result and trace equal the run a
// one-worker pool gives it without one; a batch of two on two workers
// leaves neither a worker to spare, and a lone Wave2D scenario, whose
// gain from the worker is not measured, takes none.
func TestPoolKernelWorkerLoneScenario(t *testing.T) {
	s := experiment.Scenario{
		App: experiment.Mol3D, Cores: 16, Strategy: experiment.Refine, BG: experiment.BGWave2D,
		BGWeight: 4, Seed: 2, Scale: 0.1,
	}
	run := func(workers int, batch []experiment.Scenario) (string, []trace.Segment, []map[string]any) {
		tr := obs.NewTrace("pool-kernel", nil)
		rec := trace.NewRecorder()
		batch[0].Trace = rec
		results, _, err := (&Pool{Workers: workers}).RunBatch(obs.NewContext(context.Background(), tr), batch)
		if err != nil {
			t.Fatal(err)
		}
		var drives []map[string]any
		for _, sp := range tr.Spans() {
			if sp.Cat == obs.CatSim && sp.Name == "sim-drive" {
				drives = append(drives, sp.Args)
			}
		}
		return fmt.Sprintf("%+v", results[0]), rec.Segments(), drives
	}
	alone, aloneSegs, drives := run(1, []experiment.Scenario{s})
	if len(drives) != 1 || drives[0]["kernel_worker"] != false {
		t.Fatalf("one-worker pool: sim-drive args %v, want no kernel worker", drives)
	}
	pooled, pooledSegs, drives := run(2, []experiment.Scenario{s})
	if len(drives) != 1 || drives[0]["kernel_worker"] != true || drives[0]["shards"] != 1 {
		t.Fatalf("lone scenario on two workers: sim-drive args %v, want one shard and a kernel worker", drives)
	}
	if pooled != alone {
		t.Errorf("Result with a kernel worker differs:\n got %s\nwant %s", pooled, alone)
	}
	if !slices.Equal(pooledSegs, aloneSegs) {
		t.Errorf("trace with a kernel worker differs (%d segments, want %d)", len(pooledSegs), len(aloneSegs))
	}
	_, _, drives = run(2, []experiment.Scenario{s, s})
	for _, d := range drives {
		if d["kernel_worker"] != false {
			t.Errorf("batch of two on two workers: sim-drive args %v, want no kernel worker", d)
		}
	}
	stencil := s
	stencil.App = experiment.Wave2D
	if _, _, drives = run(2, []experiment.Scenario{stencil}); len(drives) != 1 || drives[0]["kernel_worker"] != false {
		t.Errorf("lone Wave2D scenario on two workers: sim-drive args %v, want no kernel worker", drives)
	}
}
