package cloudlb

// One benchmark per paper artifact (figures 1-4) plus the ablation
// benches called out in DESIGN.md. Each benchmark runs a reduced-scale
// version of the corresponding experiment and reports the headline
// quantities as custom metrics, so `go test -bench=.` both exercises the
// full pipeline and prints the reproduced shape. Full-scale tables come
// from `go run ./cmd/figures`.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/experiment"
	"cloudlb/internal/lb"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// benchScale keeps each iteration under ~a second while leaving enough
// LB periods for the balancer to converge.
const benchScale = experiment.BenchScale

var benchSeeds = []int64{1}

// benchEvaluate runs a Spec's Figure 2/4 matrix sequentially, failing the
// benchmark on error (unreachable for sequential in-process dispatch).
func benchEvaluate(b *testing.B, sp experiment.Spec) []experiment.Eval {
	b.Helper()
	evals, err := sp.Evaluate(context.Background(), experiment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return evals
}

// reportEval reports the headline quantities of the widest evaluation
// row (the one with the most cores), selected by field rather than by
// slice position so a reordered or truncated core-count list cannot
// silently change what the metrics describe.
func reportEval(b *testing.B, evals []experiment.Eval) {
	b.Helper()
	if len(evals) == 0 {
		b.Fatal("experiment produced no evaluations")
	}
	widest := evals[0]
	for _, e := range evals[1:] {
		if e.Cores > widest.Cores {
			widest = e
		}
	}
	b.ReportMetric(widest.PenAppNoLB, "noLB_penalty_%")
	b.ReportMetric(widest.PenAppLB, "LB_penalty_%")
	b.ReportMetric(float64(widest.MigrationsLB), "migrations")
}

// BenchmarkFig2Jacobi2D regenerates Figure 2(a): Jacobi2D timing penalty
// with and without RefineLB under a 2-core interfering Wave2D job.
func BenchmarkFig2Jacobi2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := benchEvaluate(b, experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4, 8}, Seeds: benchSeeds, Scale: benchScale})
		if i == b.N-1 {
			reportEval(b, evals)
		}
	}
}

// BenchmarkFig2Wave2D regenerates Figure 2(b).
func BenchmarkFig2Wave2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := benchEvaluate(b, experiment.Spec{App: experiment.Wave2D, Cores: []int{4, 8}, Seeds: benchSeeds, Scale: benchScale})
		if i == b.N-1 {
			reportEval(b, evals)
		}
	}
}

// BenchmarkFig2Mol3D regenerates Figure 2(c): the internally imbalanced
// MD code under a background job the OS prefers 4:1.
func BenchmarkFig2Mol3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Mol3D needs a few more LB periods than the stencils to
		// converge under the 4x-preferred background job.
		evals := benchEvaluate(b, experiment.Spec{App: experiment.Mol3D, Cores: []int{4, 8}, Seeds: benchSeeds, Scale: 0.4})
		if i == b.N-1 {
			reportEval(b, evals)
		}
	}
}

// BenchmarkFig4Energy regenerates Figure 4's quantities (average power
// and normalized energy overhead) for Wave2D.
func BenchmarkFig4Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := benchEvaluate(b, experiment.Spec{App: experiment.Wave2D, Cores: []int{8}, Seeds: benchSeeds, Scale: benchScale})
		if i == b.N-1 {
			e := evals[0]
			b.ReportMetric(e.PowerNoLB, "noLB_W")
			b.ReportMetric(e.PowerLB, "LB_W")
			b.ReportMetric(e.EnergyOvhNoLB, "noLB_energy_ovh_%")
			b.ReportMetric(e.EnergyOvhLB, "LB_energy_ovh_%")
		}
	}
}

// BenchmarkFig1Timeline regenerates Figure 1: a 1-core job landing
// mid-run on one core of a 4-core Wave2D run without load balancing.
func BenchmarkFig1Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, res, err := experiment.Fig1(context.Background(), experiment.Options{}, experiment.Spec{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			after := s.Trace.BusyFraction(3, trace.KindBackground, s.Hogs[0].Start, sim.Time(res.AppWall))
			b.ReportMetric(after*100, "bg_share_after_%")
		}
	}
}

// BenchmarkFig3Adaptation regenerates Figure 3: RefineLB adapting as
// interference moves between cores.
func BenchmarkFig3Adaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiment.Fig3(context.Background(), experiment.Options{}, experiment.Spec{Scale: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Migrations), "migrations")
		}
	}
}

// BenchmarkAblationBackgroundTerm (DESIGN.md A1): RefineLB versus the
// same refinement with the background-load term O_p removed. The world
// (experiment.AblationRun) has internal imbalance that leaves the hogged
// core lightly loaded, the case the paper's O_p term (Eq. 2) exists for.
func BenchmarkAblationBackgroundTerm(b *testing.B) {
	var aware, blind float64
	for i := 0; i < b.N; i++ {
		aware = experiment.AblationRun(&core.RefineLB{EpsilonFrac: 0.02})
		blind = experiment.AblationRun(&lb.RefineInternalLB{Inner: core.RefineLB{EpsilonFrac: 0.02}})
	}
	b.ReportMetric(aware, "aware_wall_s")
	b.ReportMetric(blind, "blind_wall_s")
}

// BenchmarkIterationSteadyState measures one Wave2D superstep in steady
// state with load balancing disabled: the runtime's per-iteration cost
// (edge messages, thread scheduling, kernel work) with no LB machinery
// and no startup transient, so hot-path regressions are visible
// separately from the end-to-end figure benches.
func BenchmarkIterationSteadyState(b *testing.B) {
	w := experiment.NewSteadyIterBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.StepOnce()
	}
}

// BenchmarkAblationRefineVsGreedy (DESIGN.md A2): migration counts and
// wall time of refinement versus from-scratch greedy reassignment.
func BenchmarkAblationRefineVsGreedy(b *testing.B) {
	var refineMigs, greedyMigs, refineWall, greedyWall float64
	for i := 0; i < b.N; i++ {
		r := experiment.Run(experiment.Scenario{
			App: experiment.Wave2D, Cores: 4, Strategy: experiment.Refine,
			BG: experiment.BGWave2D, Seed: 1, Scale: benchScale,
		})
		g := experiment.Run(experiment.Scenario{
			App: experiment.Wave2D, Cores: 4, Strategy: experiment.Greedy,
			BG: experiment.BGWave2D, Seed: 1, Scale: benchScale,
		})
		refineMigs, greedyMigs = float64(r.Migrations), float64(g.Migrations)
		refineWall, greedyWall = r.AppWall, g.AppWall
	}
	b.ReportMetric(refineMigs, "refine_migrations")
	b.ReportMetric(greedyMigs, "greedy_migrations")
	b.ReportMetric(refineWall, "refine_wall_s")
	b.ReportMetric(greedyWall, "greedy_wall_s")
}

// BenchmarkSweepRefineParams quantifies the sensitivity of RefineLB's
// design parameters (epsilon tolerance and LB period) called out in
// DESIGN.md.
func BenchmarkSweepRefineParams(b *testing.B) {
	var points []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Spec{
			App: experiment.Wave2D, Cores: []int{4}, Seeds: benchSeeds, Scale: benchScale,
			EpsFracs: []float64{0.02, 0.1}, Periods: []int{10, 40},
		}.SweepRefineParams(context.Background(), experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.EpsilonFrac == 0.02 && p.SyncEvery == 10 {
			b.ReportMetric(p.PenaltyPct, "eps02_p10_penalty_%")
		}
		if p.EpsilonFrac == 0.1 && p.SyncEvery == 40 {
			b.ReportMetric(p.PenaltyPct, "eps10_p40_penalty_%")
		}
	}
}

// BenchmarkExtensionCloudChurn (paper §VI future work): tenant VMs
// arriving and departing across every application core, RefineLB versus
// noLB.
func BenchmarkExtensionCloudChurn(b *testing.B) {
	var no, lbw float64
	var migs int
	for i := 0; i < b.N; i++ {
		n := experiment.Run(experiment.Scenario{
			App: experiment.Wave2D, Cores: 8, Strategy: experiment.NoLB,
			BG: experiment.BGCloudChurn, Seed: 1, Scale: 0.5,
		})
		l := experiment.Run(experiment.Scenario{
			App: experiment.Wave2D, Cores: 8, Strategy: experiment.Refine,
			BG: experiment.BGCloudChurn, Seed: 1, Scale: 0.5,
		})
		no, lbw, migs = n.AppWall, l.AppWall, l.Migrations
	}
	b.ReportMetric(no, "noLB_wall_s")
	b.ReportMetric(lbw, "LB_wall_s")
	b.ReportMetric(float64(migs), "migrations")
}

// BenchmarkShardedScheduler times the conservative sharded scheduler at
// one shard and at eight on the heaviest scenario of the evaluation
// (Mol3D, full 32-core testbed, interfered, RefineLB). One shard is a
// single event engine; shards=8 runs one shard per node.
// Their results are byte-identical — the difference is wall clock, and
// on a multi-core host with GOMAXPROCS >= 8 the sharded run should win.
func BenchmarkShardedScheduler(b *testing.B) {
	for _, shards := range []int{1, 8} {
		nb := experiment.ShardedBench(shards)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nb.Run()
			}
		})
	}
}

// BenchmarkStrategyPlan times one Strategy.Plan call per planner on
// synthetic clustered-hotspot snapshots from the paper testbed (32
// cores) up to the Figure 7 cloud allocation (1024 cores, ~100k tasks).
// The centralized planners sort or heapify the whole gathered task list;
// DiffusionLB runs every per-PE planner over only its local tasks and
// neighbor summaries, so its planning cost scales with the imbalance,
// not the allocation. RefineSwapLB's quadratic swap search is capped at
// 256 cores (see experiment.PlanBenchStrategies).
func BenchmarkStrategyPlan(b *testing.B) {
	for _, nb := range experiment.StrategyPlanBenchmarks() {
		run := nb.Run
		b.Run(strings.TrimPrefix(nb.Name, "StrategyPlan"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkAblationMigrationCost (DESIGN.md A3, the paper's future-work
// variant): the cost-gated balancer versus always-migrate refinement.
func BenchmarkAblationMigrationCost(b *testing.B) {
	var refine, gated float64
	for i := 0; i < b.N; i++ {
		r := experiment.Run(experiment.Scenario{
			App: experiment.Wave2D, Cores: 4, Strategy: experiment.Refine,
			BG: experiment.BGWave2D, Seed: 1, Scale: benchScale,
		})
		c := experiment.Run(experiment.Scenario{
			App: experiment.Wave2D, Cores: 4, Strategy: experiment.CostAware,
			BG: experiment.BGWave2D, Seed: 1, Scale: benchScale,
		})
		refine, gated = r.AppWall, c.AppWall
	}
	b.ReportMetric(refine, "refine_wall_s")
	b.ReportMetric(gated, "costaware_wall_s")
}
