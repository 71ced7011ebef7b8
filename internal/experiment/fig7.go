package experiment

import (
	"context"

	"cloudlb/internal/metrics"
	"cloudlb/internal/stats"
)

// Figure 7 (extension beyond the paper): load balancing at cloud scale.
// The paper's protocol gathers every task record on PE 0 and plans
// centrally — O(all tasks) state and serial planning time on one core. At
// the allocation sizes cloud providers actually rent out that master
// becomes the bottleneck, which is exactly what DiffusionLB removes: PEs
// exchange O(1) load summaries with their mesh neighbors and hand tasks
// off peer to peer, so no PE ever holds more than O(local tasks +
// neighbors) planning state. This figure runs the interfered Wave2D
// workload at 1024 cores / ~100k chares and compares the distributed
// balancer against the flat and tree-gather centralized refiners.

// Fig7 run shape: 1024 cores (256 nodes), 98 chares per core = 100,352
// chares. The stencil block shrinks to 4x4 cells so the kernel state of
// 100k chares stays small, and the built-in x0.05 scale factor keeps the
// run at the iteration-count floor (20 iterations, LB every 5) — enough
// for three LB steps without simulating minutes of virtual time.
const (
	fig7Cores         = 1024
	fig7CharesPerCore = 98
	fig7StencilBlock  = 4
	fig7SyncEvery     = 5
	fig7Scale         = 0.05
	fig7Seed          = 1
)

// fig7Rows lists the strategies under comparison, in output order.
var fig7Rows = []struct {
	Label    string
	Strategy StrategyKind
	Hier     bool
}{
	{"DiffusionLB", Diffusion, false},
	{"RefineLB+tree", Refine, true},
	{"RefineLB", Refine, false},
}

// DiffEval is one strategy's row of the cloud-scale comparison. Every
// field except PlanHostSeconds is deterministic (bit-identical at any
// shard or worker count); PlanHostSeconds is real host time inside the
// strategy's planning code and belongs on stderr, never in the committed
// figure.
type DiffEval struct {
	Label      string
	Strategy   StrategyKind
	Hier       bool
	Wall       float64 // application wall time (s)
	BGWall     float64 // background job wall time (s)
	Migrations int
	LBSteps    int
	// Rounds is the total neighbor-exchange rounds across all LB steps
	// (charm_lb_rounds_total; 0 for centralized strategies).
	Rounds int
	// PeakStateBytes is the maximum, over PEs, of the planning-state
	// high-water mark (charm_lb_peak_state_bytes): gathered stats on the
	// master under a centralized strategy, planner state under the
	// distributed one.
	PeakStateBytes int
	// PlanHostSeconds is the real host time spent planning
	// (charm_lb_strategy_wall_seconds_total) — machine-dependent,
	// reported on stderr only.
	PlanHostSeconds float64
}

// Fig7Spec is the Spec Fig7 runs sp as: the figure's own interfered
// application, allocation, seed, strategies and run shape, with sp's
// Scale, Net and Shards. It is the one statement of Figure 7's shape:
// Fig7 expands it, and cmd/figures validates it before the figure runs.
func Fig7Spec(sp Spec) Spec {
	strategies := make([]StrategyKind, len(fig7Rows))
	for i, row := range fig7Rows {
		strategies[i] = row.Strategy
	}
	return Spec{
		App: Wave2D, Cores: []int{fig7Cores}, BG: BGWave2D,
		Strategies: strategies, Seeds: []int64{fig7Seed},
		Scale:         sp.Scale,
		SyncEvery:     fig7SyncEvery,
		CharesPerCore: fig7CharesPerCore,
		StencilBlock:  fig7StencilBlock,
		Net:           sp.Net,
		Shards:        sp.Shards,
	}
}

// Fig7 runs the cloud-scale comparison and assembles one row per
// strategy. The figure fixes its own application, allocation and
// strategies; it reads only the Spec's Scale, Net and Shards. Each row
// records into a fig7=<row label> view of opts.Metrics (of a fresh
// registry when that is nil), so its rounds, peak-state and planning-time
// series are read back by that label, and land beside the other
// figures' series in the caller's export.
func Fig7(ctx context.Context, opts Options, sp Spec) ([]DiffEval, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	batch := Fig7Spec(sp).Scenarios()
	for i, row := range fig7Rows {
		batch[i].Scale *= fig7Scale
		batch[i].Hierarchical = row.Hier
		batch[i].Metrics = reg.With(metrics.L("fig7", row.Label))
	}
	results, err := sp.run(ctx, opts, batch)
	if err != nil {
		return nil, err
	}
	out := make([]DiffEval, len(fig7Rows))
	rowOf := make(map[metrics.Label]*DiffEval, len(fig7Rows))
	for i, row := range fig7Rows {
		r := results[i]
		out[i] = DiffEval{
			Label: row.Label, Strategy: row.Strategy, Hier: row.Hier,
			Wall: r.AppWall, BGWall: r.BGWall,
			Migrations: r.Migrations, LBSteps: r.LBSteps,
		}
		rowOf[metrics.L("fig7", row.Label)] = &out[i]
	}
	for _, s := range reg.Gather().Series {
		var e *DiffEval
		for _, l := range s.Labels {
			if e = rowOf[l]; e != nil {
				break
			}
		}
		if e == nil {
			continue
		}
		switch s.Name {
		case "charm_lb_rounds_total":
			e.Rounds = int(s.Value)
		case "charm_lb_peak_state_bytes":
			if b := int(s.Value); b > e.PeakStateBytes {
				e.PeakStateBytes = b
			}
		case "charm_lb_strategy_wall_seconds_total":
			e.PlanHostSeconds += s.Value
		}
	}
	return out, nil
}

// Fig7Table renders the comparison. Only deterministic columns: host
// planning time goes to stderr in cmd/figures.
func Fig7Table(evals []DiffEval) *stats.Table {
	t := stats.NewTable("strategy", "wall s", "bg wall s", "migrations", "lb steps", "rounds", "peak state B")
	for _, e := range evals {
		t.AddRow(e.Label, e.Wall, e.BGWall, e.Migrations, e.LBSteps, e.Rounds, e.PeakStateBytes)
	}
	return t
}
