package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/runner"
	"cloudlb/internal/xnet"
)

// workers is the scenario parallelism of every workload: the benchmark
// host has two cores, and one process with at most two busy threads
// keeps the load the same on both commits of a comparison.
const workers = 2

// catBench is the span category of the benchmark's own spans around its
// calls into the program.
const catBench = "bench"

// env is one run's settings as a workload sees them.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// bt collects the run's spans: the benchmark's own, and in traced
	// ops every span the program records on a traced context. Nil in an
	// untraced run, which records nothing.
	bt     *obs.Trace
	checks *checker
}

// workload is one benchmark input set. setup builds a fresh fixture from
// the seed, up to and including one untimed warm-up op.
type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, e *env) (fixture, error)
}

// fixture is a set-up workload, ready to be measured.
type fixture interface {
	// measure issues ops for e.seconds and returns what it timed.
	measure(ctx context.Context) (*measured, error)
	// probe measures per-layer numbers that need ops of their own, after
	// the timed window of a traced run.
	probe(ctx context.Context) (map[string]float64, error)
	close()
}

// measured is the output of one timed window.
type measured struct {
	samples []sample
	// opKind names the samples op_s is the median of.
	opKind string
	// layer holds the workload's per-layer metrics (traced runs only).
	layer map[string]float64
}

var workloads = []workload{
	{
		name:  "fig2-batch",
		why:   "Figure 2/4 regeneration: 60 small and medium worlds per op through the 2-worker pool; world build and the sim/machine/charm hot path do the work.",
		setup: scenarioSetup(fig2Inputs, false),
	},
	{
		name:  "mol3d-32c",
		why:   "One big interfered Mol3D scenario the pool cannot split: only a faster engine path or intra-scenario parallelism shortens it.",
		setup: scenarioSetup(mol3dInputs, true),
	},
	{
		name:  "cloud-256c-lossy",
		why:   "8k-chare Wave2D on 256 cores with DiffusionLB over a lossy straggler network: the retransmit path and distributed LB rounds.",
		setup: scenarioSetup(cloudInputs, false),
	},
	{
		name:  "service-mix",
		why:   "Open-loop cache-hit reads beside computing writes on one in-process service: the HTTP, canonical hash, store and cache path.",
		setup: serviceSetup,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenarioInput is one op of a scenario workload: the Specs it runs, in
// order, and the key its result digest is checked under.
type scenarioInput struct {
	key   string
	specs []experiment.Spec
	// evaluate runs each Spec through Spec.Evaluate (the Figure 2/4
	// matrix); otherwise each Spec's Scenarios batch runs on the pool.
	evaluate bool
}

// batchLen is the largest scenario batch one of the input's Specs sends
// to the pool.
func (in scenarioInput) batchLen() int {
	n := 0
	for _, sp := range in.specs {
		k := len(sp.Scenarios())
		if in.evaluate {
			k = len(experiment.EvaluateScenarios(sp.App, sp.Cores, sp.Seeds, sp.Scale))
		}
		if k > n {
			n = k
		}
	}
	return n
}

// run executes the op and returns the SHA-256 of its result rows. A
// non-nil reg receives the scenarios' registry series.
func (in scenarioInput) run(ctx context.Context, pool *runner.Pool, reg *metrics.Registry) (string, error) {
	h := sha256.New()
	for _, sp := range in.specs {
		if in.evaluate {
			evals, err := sp.Evaluate(ctx, experiment.Options{Executor: pool.Executor(), Metrics: reg})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, "%+v\n", evals)
			continue
		}
		batch := sp.Scenarios()
		for i := range batch {
			batch[i].Metrics = reg
		}
		results, _, err := pool.RunBatch(ctx, batch)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%+v\n", results)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// The generators below derive every input from the run's seed. Ops rotate
// over a few scenario seeds, so repeated inputs check each other and no
// single seed's luck sets the time.

// fig2Inputs is the Figure 2/4 matrix (3 apps × 4 core counts × 5 runs)
// at seeds seed..seed+2; the warm-up op is its 4-core column.
func fig2Inputs(seed int64) (warm scenarioInput, ops []scenarioInput) {
	specs := func(s int64, cores []int) []experiment.Spec {
		var out []experiment.Spec
		for _, app := range []experiment.AppKind{experiment.Jacobi2D, experiment.Wave2D, experiment.Mol3D} {
			out = append(out, experiment.Spec{App: app, Cores: cores, Seeds: []int64{s}, Scale: 0.15})
		}
		return out
	}
	warm = scenarioInput{key: fmt.Sprintf("fig2-batch/cores=4/seed=%d", seed), specs: specs(seed, []int{4}), evaluate: true}
	for i := int64(0); i < 3; i++ {
		ops = append(ops, scenarioInput{
			key:      fmt.Sprintf("fig2-batch/seed=%d", seed+i),
			specs:    specs(seed+i, []int{4, 8, 16, 32}),
			evaluate: true,
		})
	}
	return warm, ops
}

// mol3dSpec is the heaviest single scenario of the evaluation: Mol3D on
// the 32-core testbed under the 4x-preferred background job, RefineLB.
func mol3dSpec(s int64) experiment.Spec {
	return experiment.Spec{
		App: experiment.Mol3D, Cores: []int{32},
		Strategies: []experiment.StrategyKind{experiment.Refine},
		Seeds:      []int64{s}, Scale: 0.4,
		BG: experiment.BGWave2D, BGWeight: 4, BGIters: 2400,
	}
}

func mol3dInputs(seed int64) (warm scenarioInput, ops []scenarioInput) {
	for i := int64(0); i < 3; i++ {
		ops = append(ops, scenarioInput{
			key:   fmt.Sprintf("mol3d-32c/seed=%d", seed+i),
			specs: []experiment.Spec{mol3dSpec(seed + i)},
		})
	}
	return ops[0], ops
}

// cloudSpec is interfered-cloud Wave2D at 256 cores × 32 chares per core
// under DiffusionLB, over a network that drops 2% of inter-node
// transmissions and has one straggler node; the drop lottery's seed
// rotates with the scenario's.
func cloudSpec(s int64) experiment.Spec {
	return experiment.Spec{
		App: experiment.Wave2D, Cores: []int{256},
		Strategies: []experiment.StrategyKind{experiment.Diffusion},
		Seeds:      []int64{s}, Scale: 0.05,
		CharesPerCore: 32, StencilBlock: 4, SyncEvery: 5,
		Net: xnet.Config{DropPct: 2, StragglerNodes: []int{3}, StragglerFactor: 4, Seed: s},
	}
}

func cloudInputs(seed int64) (warm scenarioInput, ops []scenarioInput) {
	for i := int64(0); i < 4; i++ {
		ops = append(ops, scenarioInput{
			key:   fmt.Sprintf("cloud-256c-lossy/seed=%d", seed+i),
			specs: []experiment.Spec{cloudSpec(seed + i)},
		})
	}
	return ops[0], ops
}

// scenarioFixture runs one scenario workload's ops back to back (a
// closed loop of one caller) on a two-worker runner pool.
type scenarioFixture struct {
	e    *env
	pool *runner.Pool
	ops  []scenarioInput
	// busy is how many pool workers an op can keep busy.
	busy int
	// shardsProbe enables the sharded-engine ratio in probe.
	shardsProbe bool
}

// scenarioSetup builds a scenario workload's setup step from its input
// generator: generate and validate the Specs, make the pool, run the
// warm-up op.
func scenarioSetup(gen func(seed int64) (scenarioInput, []scenarioInput), shardsProbe bool) func(context.Context, *env) (fixture, error) {
	return func(ctx context.Context, e *env) (fixture, error) {
		warm, ops := gen(e.seed)
		for _, in := range append([]scenarioInput{warm}, ops...) {
			for _, sp := range in.specs {
				if err := sp.Validate(); err != nil {
					return nil, fmt.Errorf("%s: %w", in.key, err)
				}
			}
		}
		f := &scenarioFixture{
			e: e, pool: &runner.Pool{Workers: workers}, ops: ops,
			busy: min(workers, ops[0].batchLen()), shardsProbe: shardsProbe,
		}
		d, err := warm.run(ctx, f.pool, nil)
		e.checks.op(warm.key, d, err)
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		return f, nil
	}
}

func (f *scenarioFixture) close() {}

func (f *scenarioFixture) measure(ctx context.Context) (*measured, error) {
	m := &measured{opKind: "op"}
	acc := layerAcc{}
	start := time.Now()
	// At least two ops, so a traced run has one op of each kind.
	for i := 0; i < 2 || time.Since(start) < f.e.seconds; i++ {
		in := f.ops[i%len(f.ops)]
		// A traced run alternates traced and untraced ops; their medians
		// give the tracing overhead.
		traced := f.e.traced && i%2 == 0
		opCtx, reg, n0 := ctx, (*metrics.Registry)(nil), 0
		if traced {
			opCtx = obs.NewContext(ctx, f.e.bt)
			reg = metrics.NewRegistry()
			n0 = len(f.e.bt.Spans())
		}
		due := time.Since(start)
		span := f.e.bt.Start(catBench, "op", 0)
		d, err := in.run(opCtx, f.pool, reg)
		wall := time.Since(start) - due
		span.End("input", in.key, "traced", traced)
		ok := f.e.checks.op(in.key, d, err)
		if err != nil {
			return nil, err
		}
		m.samples = append(m.samples, sample{
			Kind: "op", DueS: due.Seconds(), LatencyS: wall.Seconds(), Traced: traced, Failed: !ok,
		})
		if traced {
			acc.scenarioOp(reg.Gather(), f.e.bt.Spans()[n0:], wall, f.busy)
		}
	}
	if f.e.traced {
		m.layer = acc.finish()
	}
	return m, nil
}

// probe times the first input at Shards 2 against Shards 1, three pairs,
// for the mol3d workload: the decision between sharding one scenario and
// running scenarios side by side rests on this ratio.
func (f *scenarioFixture) probe(ctx context.Context) (map[string]float64, error) {
	if !f.shardsProbe {
		return nil, nil
	}
	base := f.ops[0]
	sharded := scenarioInput{key: base.key, evaluate: base.evaluate}
	for _, sp := range base.specs {
		sp.Shards = 2
		sharded.specs = append(sharded.specs, sp)
	}
	var one, two []float64
	for pair := 0; pair < 3; pair++ {
		for _, in := range []scenarioInput{base, sharded} {
			span := f.e.bt.Start(catBench, "shards-probe", 0)
			t0 := time.Now()
			// Results are byte-identical at every shard count, so both
			// sides check against the same digest.
			d, err := in.run(ctx, f.pool, nil)
			wall := time.Since(t0).Seconds()
			span.End("shards", in.specs[0].Shards)
			f.e.checks.op(in.key, d, err)
			if err != nil {
				return nil, err
			}
			if in.specs[0].Shards == 2 {
				two = append(two, wall)
			} else {
				one = append(one, wall)
			}
		}
	}
	return map[string]float64{"sim.shards2_wall_ratio": median(two) / median(one)}, nil
}
