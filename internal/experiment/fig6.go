package experiment

import (
	"context"
	"fmt"

	"cloudlb/internal/stats"
	"cloudlb/internal/xnet"
)

// NetEval is one (drop %, straggler factor, strategy) cell of the
// network-interference matrix: wall time against the same strategy's run
// on the reliable uniform network. It is the network counterpart of the
// CPU-interference penalties of Figure 2 — here the "interference" is
// packet loss forcing retransmissions and a straggler node slowing every
// link that touches it.
type NetEval struct {
	DropPct     float64
	Straggle    float64 // straggler latency/bandwidth factor (1 = none)
	Strategy    StrategyKind
	Wall        float64 // wall time (s), mean across seeds
	PenaltyPct  float64 // timing penalty vs the reliable-uniform cell
	Migrations  int     // strategy migrations, mean across seeds
	Retransmits int     // network retransmissions, mean across seeds
}

// netCell overlays one sweep cell onto the Spec's base network: the
// cell's drop percentage, and — when the factor is not 1 — the last node
// of the application's allocation as the straggler. The last node is the
// natural victim: it hosts the interfered cores of the Fig. 2 scenarios,
// so the two interference families stress the same corner of the
// allocation.
func netCell(base xnet.Config, cores int, dropPct, straggle float64) xnet.Config {
	cfg := base
	cfg.DropPct = dropPct
	if straggle != 1 {
		cfg.StragglerNodes = []int{(cores - 1) / 4}
		cfg.StragglerFactor = straggle
	}
	return cfg
}

// NetworkScenarios lists the network-interference measurement matrix as
// a flat batch: DropPcts × StraggleFactors × strategies × seeds, in that
// nesting order. The flat order is the contract between
// Spec.NetworkInterference and its Executor.
func NetworkScenarios(app AppKind, cores int, strategies []StrategyKind, seeds []int64, scale float64, drops, straggles []float64, base xnet.Config) []Scenario {
	// Resolve the base up front so every cell — the reliable baseline
	// included — carries a fully-specified config that the Spec's Net can
	// never mistake for "no choice" and overwrite.
	base = base.Resolved()
	batch := make([]Scenario, 0, len(drops)*len(straggles)*len(strategies)*len(seeds))
	for _, drop := range drops {
		for _, straggle := range straggles {
			net := netCell(base, cores, drop, straggle)
			for _, k := range strategies {
				for _, seed := range seeds {
					// The interfered Fig. 2 workload, not a quiet one: the
					// balancer must be active so its reaction — and its
					// migration traffic — also crosses the degraded network.
					batch = append(batch, Scenario{
						App: app, Cores: cores, Strategy: k, BG: BGWave2D,
						Seed: seed, Scale: scale, Net: net,
					})
				}
			}
		}
	}
	return batch
}

// NetworkInterference runs the Spec's DropPcts × StraggleFactors sweep
// for every strategy at the Spec's single core count, averaged over
// Seeds. Both sweep axes must start at the reliable-uniform point
// (DropPcts[0] == 0, StraggleFactors[0] == 1): that cell is every
// strategy's penalty baseline. As with Evaluate, the assembled rows are
// identical for every dispatch mode.
func (sp Spec) NetworkInterference(ctx context.Context, opts Options) ([]NetEval, error) {
	cores, err := sp.oneCores("NetworkInterference")
	if err != nil {
		return nil, err
	}
	drops, straggles := sp.DropPcts, sp.StraggleFactors
	if len(drops) == 0 || drops[0] != 0 {
		return nil, fmt.Errorf("experiment: Spec.NetworkInterference needs DropPcts starting at 0 (the baseline cell), got %v", drops)
	}
	if len(straggles) == 0 || straggles[0] != 1 {
		return nil, fmt.Errorf("experiment: Spec.NetworkInterference needs StraggleFactors starting at 1 (the baseline cell), got %v", straggles)
	}
	results, err := sp.run(ctx, opts, NetworkScenarios(sp.App, cores, sp.Strategies, sp.Seeds, sp.scale(), drops, straggles, sp.Net))
	if err != nil {
		return nil, err
	}
	// cell(di, si, ki) is the per-seed slice of one matrix cell.
	cell := func(di, si, ki int) []Result {
		off := ((di*len(straggles)+si)*len(sp.Strategies) + ki) * len(sp.Seeds)
		return results[off : off+len(sp.Seeds)]
	}
	baseWall := make([]float64, len(sp.Strategies))
	for ki := range sp.Strategies {
		var walls []float64
		for _, r := range cell(0, 0, ki) {
			walls = append(walls, r.AppWall)
		}
		baseWall[ki] = stats.Mean(walls)
	}
	var out []NetEval
	for di, drop := range drops {
		for si, straggle := range straggles {
			for ki, k := range sp.Strategies {
				var walls, migs, retrans []float64
				for _, r := range cell(di, si, ki) {
					walls = append(walls, r.AppWall)
					migs = append(migs, float64(r.Migrations))
					retrans = append(retrans, float64(r.NetRetransmits))
				}
				out = append(out, NetEval{
					DropPct:     drop,
					Straggle:    straggle,
					Strategy:    k,
					Wall:        stats.Mean(walls),
					PenaltyPct:  stats.TimingPenaltyPct(stats.Mean(walls), baseWall[ki]),
					Migrations:  int(stats.Mean(migs) + 0.5),
					Retransmits: int(stats.Mean(retrans) + 0.5),
				})
			}
		}
	}
	return out, nil
}

// Fig6Table renders the network-interference evaluation: timing penalty
// of packet loss and a straggler node, per strategy.
func Fig6Table(evals []NetEval) *stats.Table {
	t := stats.NewTable("drop %", "straggler x", "strategy", "wall s", "penalty %", "migrations", "retransmits")
	for _, e := range evals {
		t.AddRow(e.DropPct, e.Straggle, e.Strategy.String(), e.Wall, e.PenaltyPct, e.Migrations, e.Retransmits)
	}
	return t
}
