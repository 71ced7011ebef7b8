package experiment

import (
	"context"

	"cloudlb/internal/interfere"
	"cloudlb/internal/sim"
	"cloudlb/internal/stats"
	"cloudlb/internal/trace"
)

// Eval bundles everything the paper reports for one application at one
// core count: Figure 2's timing penalties and Figure 4's power and
// normalized energy overheads, for both the noLB and RefineLB runs.
type Eval struct {
	App   AppKind
	Cores int

	// Interference-free baselines. The paper's timing penalty compares a
	// run against "the same run without any interference", so the noLB
	// and RefineLB runs each have their own baseline (they differ when
	// the application is internally imbalanced, as Mol3D is).
	BaseWallNoLB float64
	BaseWallLB   float64
	BGBase       float64 // background job's solo wall time (s)

	PenAppNoLB float64 // % timing penalty, application, no load balancing
	PenAppLB   float64 // % timing penalty, application, RefineLB
	PenBGNoLB  float64 // % timing penalty, background job, no LB
	PenBGLB    float64 // % timing penalty, background job, RefineLB

	PowerBase float64 // avg W, interference-free run
	PowerNoLB float64 // avg W, interfered, no LB
	PowerLB   float64 // avg W, interfered, RefineLB

	EnergyOvhNoLB float64 // % energy overhead vs interference-free run
	EnergyOvhLB   float64

	MigrationsLB int // objects migrated by RefineLB (mean across seeds)
	LBSteps      int
}

// bgWeightFor models the OS preference the paper observed: for Mol3D the
// operating system allocated a large share of the CPU to the background
// job (§V.A: noLB penalties up to 400%); a 4x scheduling weight reproduces
// that preference. The stencil codes saw roughly equal sharing.
func bgWeightFor(app AppKind) float64 {
	if app == Mol3D {
		return 4
	}
	return 1
}

// bgItersFor sizes the background job so it spans the interfered run:
// Mol3D under a 4x-preferred background is slowed far more than the
// stencils, so its background job runs longer (the paper keeps the
// background workload constant within each application's panel).
func bgItersFor(app AppKind) int {
	if app == Mol3D {
		return 2400
	}
	return 600
}

// evalRunsPerCell is the number of scenarios behind one (core count, seed)
// cell of the Figure 2 / Figure 4 matrix, in EvaluateScenarios order:
// interference-free noLB, interference-free RefineLB, background alone,
// interfered noLB, interfered RefineLB.
const evalRunsPerCell = 5

// EvaluateScenarios lists the full measurement matrix behind Evaluate as a
// flat batch: for each core count, for each seed, the evalRunsPerCell runs
// of that cell. The flat order is the contract between Spec.Evaluate and its
// Executor — results must come back slotted to the same indices.
func EvaluateScenarios(app AppKind, coreCounts []int, seeds []int64, scale float64) []Scenario {
	w := bgWeightFor(app)
	iters := bgItersFor(app)
	batch := make([]Scenario, 0, len(coreCounts)*len(seeds)*evalRunsPerCell)
	for _, cores := range coreCounts {
		for _, seed := range seeds {
			batch = append(batch,
				Scenario{App: app, Cores: cores, Strategy: NoLB, BG: BGNone, Seed: seed, Scale: scale},
				Scenario{App: app, Cores: cores, Strategy: Refine, BG: BGNone, Seed: seed, Scale: scale},
				Scenario{App: AppNone, Cores: cores, BG: BGWave2D, Seed: seed, BGIters: iters, Scale: scale},
				Scenario{App: app, Cores: cores, Strategy: NoLB, BG: BGWave2D, Seed: seed, BGWeight: w, BGIters: iters, Scale: scale},
				Scenario{App: app, Cores: cores, Strategy: Refine, BG: BGWave2D, Seed: seed, BGWeight: w, BGIters: iters, Scale: scale},
			)
		}
	}
	return batch
}

// Fig2Table renders Figure 2 for one application: timing penalty versus
// core count for the parallel job and the background job, with and
// without load balancing.
func Fig2Table(app AppKind, evals []Eval) *stats.Table {
	t := stats.NewTable("cores", "noLB %", "LB %", "BG noLB %", "BG LB %")
	for _, e := range evals {
		t.AddRow(e.Cores, e.PenAppNoLB, e.PenAppLB, e.PenBGNoLB, e.PenBGLB)
	}
	return t
}

// Fig4Table renders Figure 4 for one application: average power and
// normalized energy overhead versus core count.
func Fig4Table(app AppKind, evals []Eval) *stats.Table {
	t := stats.NewTable("cores", "noLB W", "LB W", "noLB energy ovh %", "LB energy ovh %")
	for _, e := range evals {
		t.AddRow(e.Cores, e.PowerNoLB, e.PowerLB, e.EnergyOvhNoLB, e.EnergyOvhLB)
	}
	return t
}

// Fig1Spec is the Spec Figure 1 runs sp as: Wave2D on the 4 cores of one
// node, seed 1, without load balancing, at sp's Scale, over sp's network
// and at sp's shard count (the figure reads nothing else of sp). Fig1
// expands it, and cmd/figures validates it before the figure runs.
func Fig1Spec(sp Spec) Spec {
	return Spec{
		App: Wave2D, Cores: []int{4}, Strategies: []StrategyKind{NoLB}, Seeds: []int64{1},
		Scale: sp.Scale, Net: sp.Net, Shards: sp.Shards,
	}
}

// Fig1 reproduces the paper's Figure 1: Wave2D on the 4 cores of one node,
// no load balancing; a third of the way into the run a 1-core job starts
// on core 3 (the paper's Core#4) and disturbs the balance. It returns the
// scenario it ran, whose Trace holds the timeline and whose one hog is
// that job, and the run's Result.
func Fig1(ctx context.Context, opts Options, sp Spec) (Scenario, Result, error) {
	s := Fig1Spec(sp).Scenarios()[0]
	s.Hogs = []interfere.HogConfig{{Core: 3, Start: soloWall(s) / 3}}
	return runTimeline(ctx, opts, s)
}

// Fig3Spec is Fig1Spec with RefineLB: the Spec Figure 3 runs sp as.
func Fig3Spec(sp Spec) Spec {
	f := Fig1Spec(sp)
	f.Strategies = []StrategyKind{Refine}
	return f
}

// Fig3 reproduces the paper's Figure 3: a 4-core Wave2D run with RefineLB;
// interference appears on core 1, the balancer sheds its load, the
// interference ends (tasks migrate back), then new interference appears
// on core 3 and the balancer adapts again. It returns the scenario it
// ran (its Trace and its two hogs, in that order) and the run's Result.
func Fig3(ctx context.Context, opts Options, sp Spec) (Scenario, Result, error) {
	s := Fig3Spec(sp).Scenarios()[0]
	total := soloWall(s)
	s.Hogs = []interfere.HogConfig{
		{Core: 1, Start: total / 8, Stop: total * 3 / 8},
		{Core: 3, Start: total * 5 / 8, Stop: total * 7 / 8},
	}
	return runTimeline(ctx, opts, s)
}

// soloWall estimates a timeline scenario's interference-free wall time, to
// place its hogs: per iteration each core computes charesPerCore blocks of
// stencilBlock x stencilBlock Wave2D cells.
func soloWall(s Scenario) sim.Time {
	perIter := float64(charesPerCore*stencilBlock*stencilBlock) * waveCostPerCell
	return sim.Time(perIter * float64(scaleIters(waveIters, s.Scale)))
}

// runTimeline runs one timeline scenario through opts, recording its
// trace.
func runTimeline(ctx context.Context, opts Options, s Scenario) (Scenario, Result, error) {
	s.Trace = trace.NewRecorder()
	results, err := opts.run(ctx, []Scenario{s})
	if err != nil {
		return Scenario{}, Result{}, err
	}
	return s, results[0], nil
}
