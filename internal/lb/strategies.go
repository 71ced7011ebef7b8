// Package lb provides baseline and ablation load balancing strategies used
// to evaluate the paper's interference-aware RefineLB (internal/core):
//
//   - NoLB: the paper's "noLB" configuration.
//   - GreedyLB: classic Charm++ greedy reassignment from scratch; balances
//     well but migrates many objects.
//   - RefineInternalLB: the paper's algorithm with the background-load term
//     O_p removed — the ablation showing why interference awareness matters.
//   - ThresholdLB: a Brunner & Kalé (1999)-style scheme that moves work off
//     any core whose load exceeds the average by a threshold, one task at a
//     time, without the best-fit refinement.
//   - MigrationCostAwareLB: the paper's future-work idea — run an inner
//     strategy every step but only commit its migrations when the predicted
//     gain offsets the migration cost.
package lb

import (
	"slices"

	"cloudlb/internal/core"
)

// NoLB performs no migrations; it is the paper's noLB baseline.
type NoLB struct{}

// Name implements core.Strategy.
func (NoLB) Name() string { return "NoLB" }

// Plan implements core.Strategy.
func (NoLB) Plan(core.Stats) []core.Move { return nil }

// GreedyLB reassigns every task from scratch: tasks sorted heaviest-first
// are placed one by one on the currently least-loaded core (background load
// included). It achieves tight balance but ignores current placement, so
// nearly every object migrates — the classic contrast to refinement LB.
type GreedyLB struct{}

// Name implements core.Strategy.
func (GreedyLB) Name() string { return "GreedyLB" }

// Plan implements core.Strategy. Placement uses a min-heap keyed
// (load, PE) over the online cores instead of a linear scan per task —
// O(T log C) instead of O(T·C) — selecting exactly the core the scan
// would: least loaded, lowest PE on ties, never a revoked core.
func (GreedyLB) Plan(s core.Stats) []core.Move {
	if len(s.Cores) == 0 || len(s.Tasks) == 0 {
		return nil
	}
	h := make(greedyHeap, 0, len(s.Cores))
	for _, c := range s.Cores {
		if c.Offline {
			continue // a revoked core must never receive work
		}
		h = append(h, greedyCore{load: c.Background, pe: c.PE})
	}
	if len(h) == 0 {
		return nil // no live core anywhere
	}
	h.init()
	all := make([]int, len(s.Tasks))
	for i := range all {
		all[i] = i
	}
	order := core.SortTasksByLoadDesc(s, all)
	var moves []core.Move
	for _, ti := range order {
		h[0].load += s.Tasks[ti].Load
		if h[0].pe != s.Tasks[ti].PE {
			moves = append(moves, core.Move{Task: s.Tasks[ti].ID, To: h[0].pe})
		}
		h.siftDown(0)
	}
	return moves
}

// greedyCore is one online core in GreedyLB's placement heap.
type greedyCore struct {
	load float64
	pe   int
}

// greedyHeap is a binary min-heap of cores keyed (load, PE) — the same
// strict total order the linear scan minimized over, so heap and scan
// pick identical destinations.
type greedyHeap []greedyCore

func (h greedyHeap) less(a, b int) bool {
	if h[a].load != h[b].load {
		return h[a].load < h[b].load
	}
	return h[a].pe < h[b].pe
}

func (h greedyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h greedyHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		least := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// RefineInternalLB is the ablation of the paper's algorithm: identical
// refinement, but blind to background load (O_p forced to zero). Under
// interference it sees a perfectly balanced application and does nothing.
type RefineInternalLB struct {
	Inner core.RefineLB
}

// Name implements core.Strategy.
func (r *RefineInternalLB) Name() string { return "RefineInternalLB" }

// Plan implements core.Strategy.
func (r *RefineInternalLB) Plan(s core.Stats) []core.Move {
	blind := core.Stats{
		Tasks:       s.Tasks,
		Cores:       make([]core.CoreSample, len(s.Cores)),
		WallSinceLB: s.WallSinceLB,
	}
	for i, c := range s.Cores {
		c.Background = 0
		blind.Cores[i] = c
	}
	return r.Inner.Plan(blind)
}

// thresholdFrac is how far above T_avg a core's load must be for
// ThresholdLB to move a task off it.
const thresholdFrac = 0.2

// ThresholdLB moves the heaviest task off any core whose load exceeds
// T_avg by 20%, onto the globally least-loaded core, one task per
// overloaded core per step. It reacts to interference (background load is
// included) but without RefineLB's fit checks it can overshoot and
// oscillate.
type ThresholdLB struct{}

// Name implements core.Strategy.
func (t *ThresholdLB) Name() string { return "ThresholdLB" }

// Plan implements core.Strategy.
func (t *ThresholdLB) Plan(s core.Stats) []core.Move {
	if len(s.Cores) == 0 || len(s.Tasks) == 0 {
		return nil
	}
	s, forced := core.DrainOffline(s)
	tavg := core.TAvg(s)
	loads, tasksOf := core.CoreLoads(s)
	// Deterministic order: scan cores by PE.
	order := make([]int, len(s.Cores))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return s.Cores[a].PE - s.Cores[b].PE })
	var moves []core.Move
	for _, ci := range order {
		if s.Cores[ci].Offline {
			continue // already drained; never a donor or destination
		}
		if loads[ci] <= tavg*(1+thresholdFrac) {
			continue
		}
		tasks := core.SortTasksByLoadDesc(s, tasksOf[ci])
		if len(tasks) == 0 {
			continue
		}
		ti := tasks[0]
		if s.Tasks[ti].Load <= 0 {
			continue
		}
		// Least-loaded online destination.
		best := -1
		for di := range loads {
			if di == ci || s.Cores[di].Offline {
				continue
			}
			if best < 0 || loads[di] < loads[best] ||
				(loads[di] == loads[best] && s.Cores[di].PE < s.Cores[best].PE) {
				best = di
			}
		}
		if best < 0 {
			continue
		}
		moves = append(moves, core.Move{Task: s.Tasks[ti].ID, To: s.Cores[best].PE})
		loads[ci] -= s.Tasks[ti].Load
		loads[best] += s.Tasks[ti].Load
	}
	return core.MergeMoves(forced, moves)
}

// MigrationCostAwareLB implements the strategy sketched in the paper's
// future work: "load balancing decisions are performed every time a load
// balancer is invoked, however, data migration is performed only if we
// expect gains that can offset the cost of migration."
//
// It plans with Inner, predicts the gain as the reduction of the maximum
// core load (the quantity that bounds iteration time for a tightly coupled
// application), estimates migration cost from the moved bytes and the
// interconnect bandwidth, and commits the plan only when
// gain > CostMultiplier × cost.
type MigrationCostAwareLB struct {
	Inner core.Strategy
	// BytesPerSecond is the assumed migration bandwidth (bytes/s).
	BytesPerSecond float64
	// CostMultiplier scales the estimated cost before comparison;
	// 1.0 (default) means break-even.
	CostMultiplier float64

	// Skipped counts LB steps whose migrations were suppressed.
	Skipped int
}

// Name implements core.Strategy.
func (m *MigrationCostAwareLB) Name() string { return "MigrationCostAware(" + m.Inner.Name() + ")" }

// Plan implements core.Strategy.
func (m *MigrationCostAwareLB) Plan(s core.Stats) []core.Move {
	moves := m.Inner.Plan(s)
	if len(moves) == 0 {
		return nil
	}
	// Evacuations are not optional: if any task is stranded on a revoked
	// core the plan commits regardless of predicted gain, because the cost
	// of leaving the object there is losing it, not a slow iteration.
	offline := make(map[int]bool)
	for _, c := range s.Cores {
		if c.Offline {
			offline[c.PE] = true
		}
	}
	if len(offline) > 0 {
		for _, t := range s.Tasks {
			if offline[t.PE] {
				return moves
			}
		}
	}
	loads, _ := core.CoreLoads(s)
	before := maxOf(loads)

	// Apply the moves to a copy to predict the new maximum load.
	peIdx := make(map[int]int, len(s.Cores))
	for i, c := range s.Cores {
		peIdx[c.PE] = i
	}
	taskIdx := make(map[core.TaskID]int, len(s.Tasks))
	for i, t := range s.Tasks {
		taskIdx[t.ID] = i
	}
	after := append([]float64(nil), loads...)
	bytes := 0
	for _, mv := range moves {
		ti := taskIdx[mv.Task]
		after[peIdx[s.Tasks[ti].PE]] -= s.Tasks[ti].Load
		after[peIdx[mv.To]] += s.Tasks[ti].Load
		bytes += s.Tasks[ti].Bytes
	}
	gain := before - maxOf(after)

	bw := m.BytesPerSecond
	if bw <= 0 {
		bw = 1e8
	}
	mult := m.CostMultiplier
	if mult <= 0 {
		mult = 1
	}
	cost := float64(bytes) / bw
	if gain <= mult*cost {
		m.Skipped++
		return nil
	}
	return moves
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
