package experiment

import (
	"context"
	"fmt"

	"cloudlb/internal/elastic"
	"cloudlb/internal/sim"
	"cloudlb/internal/stats"
	"cloudlb/internal/xnet"
)

// Spec is the single scenario description behind every evaluation entry
// point: cmd/lbsim, cmd/figures, the scenario service and the benchmark
// set all build one Spec and run the method matching their experiment
// (see RunMethod), instead of threading ad-hoc parameter bundles through
// per-figure function signatures. The timelines (Figures 1 and 3, and
// cmd/timeline) build and validate one too, then give its one scenario
// the hogs no Spec field describes (Scenario.Hogs). The axis fields
// (Cores, Strategies, Seeds, EpsFracs, Periods) enumerate a matrix; each
// method documents which axes it consumes. Net and Shards apply to every
// method.
type Spec struct {
	// App is the measured application (required for every method).
	App AppKind `json:"app"`
	// Cores lists core counts. Evaluate iterates all of them; the
	// single-allocation methods (CompareStrategies, SweepRefineParams,
	// Elasticity, Scenarios at one count each) use every entry too.
	Cores []int `json:"cores"`
	// Strategies lists the balancers for CompareStrategies, Elasticity
	// and Scenarios.
	Strategies []StrategyKind `json:"strategies,omitempty"`
	// Seeds drive measurement noise; multi-seed methods average over them,
	// single-seed methods (CompareStrategies, SweepRefineParams) use
	// Seeds[0].
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale shrinks iteration counts for quick runs (default 1.0).
	Scale float64 `json:"scale,omitempty"`

	// Workload knobs consumed by Scenarios (the standard evaluation
	// methods derive their own per the paper's methodology).
	BG                 BGKind           `json:"bg,omitempty"`
	BGWeight           float64          `json:"bg_weight,omitempty"`
	BGIters            int              `json:"bg_iters,omitempty"`
	SyncEvery          int              `json:"sync_every,omitempty"`
	CharesPerCore      int              `json:"chares_per_core,omitempty"`
	StencilBlock       int              `json:"stencil_block,omitempty"`
	EpsilonFrac        float64          `json:"epsilon_frac,omitempty"`
	DiffRounds         int              `json:"diff_rounds,omitempty"`
	DiffTol            float64          `json:"diff_tol,omitempty"`
	InteractivityBonus float64          `json:"interactivity_bonus,omitempty"`
	Hierarchical       bool             `json:"hierarchical,omitempty"`
	Faults             elastic.Schedule `json:"faults,omitempty"`
	MaxVirtualTime     sim.Time         `json:"max_virtual_time,omitempty"`

	// Net is the cluster interconnect every scenario of every method runs
	// over (see Scenario.Net; the zero value is the uniform reliable
	// default). NetworkInterference overlays its sweep cells on it.
	Net xnet.Config `json:"net,omitzero"`

	// Shards sets the scheduler's shard count for every scenario of every
	// method (see Scenario.Shards: 0 lets the runner pool decide, 1 is one
	// shard, N>1 sharded; -1, the older "auto", is the same as 0).
	// It is an execution knob, not part of the scenario description:
	// results are byte-identical at every value, so CanonicalJSON and
	// Hash exclude it.
	Shards int `json:"shards,omitempty"`

	// Sweep axes for SweepRefineParams.
	EpsFracs []float64 `json:"eps_fracs,omitempty"`
	Periods  []int     `json:"periods,omitempty"`

	// Sweep axes for NetworkInterference: drop percentages and straggler
	// slowdown factors. Both must start at the reliable-uniform point
	// (0 and 1) so every cell has its baseline.
	DropPcts        []float64 `json:"drop_pcts,omitempty"`
	StraggleFactors []float64 `json:"straggle_factors,omitempty"`
}

func (sp Spec) scale() float64 {
	if sp.Scale <= 0 {
		return 1
	}
	return sp.Scale
}

func (sp Spec) oneCores(method string) (int, error) {
	if len(sp.Cores) != 1 {
		return 0, fmt.Errorf("experiment: Spec.%s needs exactly one core count, got %v", method, sp.Cores)
	}
	return sp.Cores[0], nil
}

func (sp Spec) oneSeed(method string) (int64, error) {
	if len(sp.Seeds) != 1 {
		return 0, fmt.Errorf("experiment: Spec.%s needs exactly one seed, got %v", method, sp.Seeds)
	}
	return sp.Seeds[0], nil
}

// run dispatches one of the Spec's method batches. Every scenario that
// does not choose its own network or scheduler gets the Spec's Net and
// Shards, so the Spec alone describes what a method simulates.
func (sp Spec) run(ctx context.Context, opts Options, batch []Scenario) ([]Result, error) {
	for i := range batch {
		if batch[i].Net.IsZero() {
			batch[i].Net = sp.Net
		}
		if batch[i].Shards == 0 {
			batch[i].Shards = sp.Shards
		}
	}
	return opts.run(ctx, batch)
}

// Scenarios expands the Spec's cross product — Cores × Strategies ×
// Seeds, in that nesting order — into a flat batch carrying every
// workload knob: the batch of the scenarios method.
func (sp Spec) Scenarios() []Scenario {
	strategies := sp.Strategies
	if len(strategies) == 0 {
		strategies = []StrategyKind{NoLB}
	}
	seeds := sp.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	batch := make([]Scenario, 0, len(sp.Cores)*len(strategies)*len(seeds))
	for _, cores := range sp.Cores {
		for _, k := range strategies {
			for _, seed := range seeds {
				batch = append(batch, Scenario{
					App: sp.App, Cores: cores, Strategy: k, BG: sp.BG,
					Seed: seed, BGWeight: sp.BGWeight, BGIters: sp.BGIters,
					Scale: sp.scale(), SyncEvery: sp.SyncEvery,
					CharesPerCore:      sp.CharesPerCore,
					StencilBlock:       sp.StencilBlock,
					EpsilonFrac:        sp.EpsilonFrac,
					DiffRounds:         sp.DiffRounds,
					DiffTol:            sp.DiffTol,
					InteractivityBonus: sp.InteractivityBonus,
					Hierarchical:       sp.Hierarchical,
					Faults:             sp.Faults,
					MaxVirtualTime:     sp.MaxVirtualTime,
					Net:                sp.Net,
					Shards:             sp.Shards,
				})
			}
		}
	}
	return batch
}

// Evaluate runs the full Figure 2 + Figure 4 measurement matrix for the
// Spec's application: base run, background-alone run, interfered noLB
// run and interfered RefineLB run, for every core count, averaged over
// Seeds. The assembled rows are identical for every dispatch mode: the
// per-seed measurement slices are rebuilt in batch order before
// averaging, so every float is accumulated in the same order as a
// sequential run.
func (sp Spec) Evaluate(ctx context.Context, opts Options) ([]Eval, error) {
	coreCounts, seeds := sp.Cores, sp.Seeds
	results, err := sp.run(ctx, opts, EvaluateScenarios(sp.App, coreCounts, seeds, sp.scale()))
	if err != nil {
		return nil, err
	}
	var out []Eval
	for ci, cores := range coreCounts {
		var baseNoW, baseNoE, baseNoP []float64
		var baseLbW, baseLbE []float64
		var bgBaseW []float64
		var noLBW, noLBBG, noLBE, noLBP []float64
		var lbW, lbBG, lbE, lbP []float64
		var migs, steps []float64
		for si := range seeds {
			cell := results[(ci*len(seeds)+si)*evalRunsPerCell:]
			baseNo, baseLb, bgBase, no, lbr := cell[0], cell[1], cell[2], cell[3], cell[4]

			baseNoW = append(baseNoW, baseNo.AppWall)
			baseNoE = append(baseNoE, baseNo.EnergyJ)
			baseNoP = append(baseNoP, baseNo.AvgPowerW)

			baseLbW = append(baseLbW, baseLb.AppWall)
			baseLbE = append(baseLbE, baseLb.EnergyJ)

			bgBaseW = append(bgBaseW, bgBase.BGWall)

			noLBW = append(noLBW, no.AppWall)
			noLBBG = append(noLBBG, no.BGWall)
			noLBE = append(noLBE, no.EnergyJ)
			noLBP = append(noLBP, no.AvgPowerW)

			lbW = append(lbW, lbr.AppWall)
			lbBG = append(lbBG, lbr.BGWall)
			lbE = append(lbE, lbr.EnergyJ)
			lbP = append(lbP, lbr.AvgPowerW)
			migs = append(migs, float64(lbr.Migrations))
			steps = append(steps, float64(lbr.LBSteps))
		}
		e := Eval{
			App: sp.App, Cores: cores,
			BaseWallNoLB:  stats.Mean(baseNoW),
			BaseWallLB:    stats.Mean(baseLbW),
			BGBase:        stats.Mean(bgBaseW),
			PenAppNoLB:    stats.TimingPenaltyPct(stats.Mean(noLBW), stats.Mean(baseNoW)),
			PenAppLB:      stats.TimingPenaltyPct(stats.Mean(lbW), stats.Mean(baseLbW)),
			PenBGNoLB:     stats.TimingPenaltyPct(stats.Mean(noLBBG), stats.Mean(bgBaseW)),
			PenBGLB:       stats.TimingPenaltyPct(stats.Mean(lbBG), stats.Mean(bgBaseW)),
			PowerBase:     stats.Mean(baseNoP),
			PowerNoLB:     stats.Mean(noLBP),
			PowerLB:       stats.Mean(lbP),
			EnergyOvhNoLB: stats.EnergyOverheadPct(stats.Mean(noLBE), stats.Mean(baseNoE)),
			EnergyOvhLB:   stats.EnergyOverheadPct(stats.Mean(lbE), stats.Mean(baseLbE)),
			MigrationsLB:  int(stats.Mean(migs) + 0.5),
			LBSteps:       int(stats.Mean(steps) + 0.5),
		}
		out = append(out, e)
	}
	return out, nil
}

// CompareStrategies runs every Spec strategy on the standard interfered
// workload at the Spec's single core count and seed (penalties against
// each strategy's own interference-free baseline, as in the paper) and
// returns the results in Strategies order.
func (sp Spec) CompareStrategies(ctx context.Context, opts Options) ([]StrategyResult, error) {
	cores, err := sp.oneCores("CompareStrategies")
	if err != nil {
		return nil, err
	}
	seed, err := sp.oneSeed("CompareStrategies")
	if err != nil {
		return nil, err
	}
	results, err := sp.run(ctx, opts, CompareScenarios(sp.App, cores, sp.Strategies, seed, sp.scale()))
	if err != nil {
		return nil, err
	}
	var out []StrategyResult
	for i, k := range sp.Strategies {
		base, r := results[2*i], results[2*i+1]
		out = append(out, StrategyResult{
			Strategy:   k,
			Wall:       r.AppWall,
			PenaltyPct: stats.TimingPenaltyPct(r.AppWall, base.AppWall),
			Migrations: r.Migrations,
			EnergyJ:    r.EnergyJ,
		})
	}
	return out, nil
}

// SweepRefineParams maps RefineLB's two tunables — the tolerance ε (as a
// fraction of T_avg, the EpsFracs axis) and the load balancing period
// (the Periods axis) — to timing penalty and migration volume on the
// standard interfered workload at the Spec's single core count and seed.
// It quantifies the design constraints documented in DESIGN.md: ε must
// stay below the background-induced uplift of T_avg (~1/P), and the
// period trades reaction latency against LB overhead.
func (sp Spec) SweepRefineParams(ctx context.Context, opts Options) ([]SweepPoint, error) {
	cores, err := sp.oneCores("SweepRefineParams")
	if err != nil {
		return nil, err
	}
	seed, err := sp.oneSeed("SweepRefineParams")
	if err != nil {
		return nil, err
	}
	results, err := sp.run(ctx, opts, SweepScenarios(sp.App, cores, sp.EpsFracs, sp.Periods, seed, sp.scale()))
	if err != nil {
		return nil, err
	}
	base := results[0]
	var out []SweepPoint
	for i, eps := range sp.EpsFracs {
		for j, period := range sp.Periods {
			r := results[1+i*len(sp.Periods)+j]
			out = append(out, SweepPoint{
				EpsilonFrac: eps,
				SyncEvery:   period,
				PenaltyPct:  stats.TimingPenaltyPct(r.AppWall, base.AppWall),
				Migrations:  r.Migrations,
				LBSteps:     r.LBSteps,
			})
		}
	}
	return out, nil
}

// Elasticity measures each Spec strategy's timing penalty under the
// Spec's fault schedule at its single core count, averaged over Seeds.
// As with Evaluate, the assembled rows are identical for every dispatch
// mode.
func (sp Spec) Elasticity(ctx context.Context, opts Options) ([]ElasticEval, error) {
	cores, err := sp.oneCores("Elasticity")
	if err != nil {
		return nil, err
	}
	results, err := sp.run(ctx, opts, ElasticityScenarios(sp.App, cores, sp.Strategies, sp.Seeds, sp.scale(), sp.Faults))
	if err != nil {
		return nil, err
	}
	var out []ElasticEval
	for ki, k := range sp.Strategies {
		var baseW, faultW, evacs, migs []float64
		for si := range sp.Seeds {
			cell := results[(ki*len(sp.Seeds)+si)*elasticRunsPerCell:]
			base, faulted := cell[0], cell[1]
			baseW = append(baseW, base.AppWall)
			faultW = append(faultW, faulted.AppWall)
			evacs = append(evacs, float64(faulted.Evacuations))
			migs = append(migs, float64(faulted.Migrations))
		}
		out = append(out, ElasticEval{
			Strategy:    k,
			BaseWall:    stats.Mean(baseW),
			FaultWall:   stats.Mean(faultW),
			PenaltyPct:  stats.TimingPenaltyPct(stats.Mean(faultW), stats.Mean(baseW)),
			Evacuations: int(stats.Mean(evacs) + 0.5),
			Migrations:  int(stats.Mean(migs) + 0.5),
		})
	}
	return out, nil
}
