package experiment

import (
	"fmt"

	"cloudlb/internal/core"
	"cloudlb/internal/lb"
)

// Strategy-planning microbenchmarks: how long one Strategy.Plan call
// takes on a synthetic load snapshot, isolated from the simulator. This
// is the number the distributed balancer changes at cloud scale — the
// centralized planners sort or heapify every task record in the gathered
// snapshot, while DiffusionLB's per-PE planners only ever look at their
// own tasks and their mesh neighbors' O(1) summaries. The root test
// suite (BenchmarkStrategyPlan) and the bench/ module's lb.plan_ms rungs
// both time exactly this set.

// PlanBenchSizes are the snapshot sizes, matching the evaluation's
// allocation ladder: the paper testbed, a mid-size cluster and the
// Figure 7 cloud allocation (1024 cores, ~100k tasks).
var PlanBenchSizes = []struct {
	Label        string
	Cores        int
	TasksPerCore int
}{
	{"32c2k", 32, 64},
	{"256c20k", 256, 80},
	{"1024c100k", 1024, 98},
}

// PlanBenchStrategies lists the planners under measurement with the same
// construction the scenario runner uses (buildStrategy defaults). The
// hierarchical (tree) mode has no row of its own: the tree only changes
// how stats travel — the root still runs the configured strategy's Plan
// over the full gathered snapshot, so its planning cost IS the RefineLB
// row (Figure 7's RefineLB+tree run confirms the identical peak state).
// MaxCores caps the snapshot size for planners whose cost is too far
// superlinear to time at the cloud allocation: RefineSwapLB's pairwise
// swap search is quadratic in tasks-per-core across core pairs and a
// single 100k-task Plan takes minutes — the cap keeps the suite honest
// about what each planner can actually be asked to do.
var PlanBenchStrategies = []struct {
	Name     string
	Build    func() core.Strategy
	MaxCores int
}{
	{"RefineLB", func() core.Strategy { return &core.RefineLB{EpsilonFrac: 0.02} }, 0},
	{"GreedyLB", func() core.Strategy { return lb.GreedyLB{} }, 0},
	{"RefineSwapLB", func() core.Strategy {
		return &lb.RefineSwapLB{Inner: core.RefineLB{EpsilonFrac: 0.02}}
	}, 256},
	{"DiffusionLB", func() core.Strategy { return &lb.DiffusionLB{} }, 0},
}

// SyntheticStats builds a deterministic clustered-hotspot load snapshot:
// cores on the core.MeshShape mesh with unit speed and no background,
// tasks jittered ±10% around 1 ms, and the mesh's lower-left quarter
// carrying 3x-cost tasks. The hotspot is spatially clustered — not
// scattered — so the distributed balancer's work stays localized to the
// cluster boundary, the same shape a straggler rack or a co-located
// noisy tenant produces; a centralized planner pays for the full task
// list regardless. The snapshot is pure data, safe to share across
// benchmark iterations (Plan must not mutate its argument).
func SyntheticStats(cores, tasksPerCore int) core.Stats {
	w, h := core.MeshShape(cores)
	s := core.Stats{
		Tasks:       make([]core.Task, 0, cores*tasksPerCore),
		Cores:       make([]core.CoreSample, cores),
		WallSinceLB: 10,
	}
	for pe := 0; pe < cores; pe++ {
		s.Cores[pe] = core.CoreSample{PE: pe, Speed: 1}
		hot := pe%w < (w+3)/4 && pe/w < (h+3)/4
		for i := 0; i < tasksPerCore; i++ {
			idx := pe*tasksPerCore + i
			// SplitMix64-style hash of the task index: deterministic
			// jitter with no cross-size coupling to a shared RNG stream.
			r := uint64(idx)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
			r ^= r >> 33
			load := 0.001 * (0.9 + 0.2*float64(r%1024)/1024)
			if hot {
				load *= 3
			}
			s.Tasks = append(s.Tasks, core.Task{
				ID: core.TaskID{Array: "syn", Index: idx},
				PE: pe, Load: load, Bytes: 4096,
			})
		}
	}
	return s
}

// StrategyPlanBenchmarks returns one workload per strategy x size cell
// (minus the capped cells): one op is one Plan call over a prebuilt
// snapshot. The snapshots are built here, outside any timed region.
//
// Reading the numbers: a centralized strategy's Plan IS its per-LB-step
// critical path — it runs serially on the master while every other PE
// waits at the AtSync barrier. DiffusionLB's Plan is the synchronous
// offline driver stepping all per-PE planners one after another, so its
// total is NOT the protocol's critical path; the DiffusionLBPerPE
// entries time what one PE actually executes per LB step (planner
// construction plus every exchange round), which is the work that runs
// concurrently across the machine. Comparing DiffusionLBPerPE against
// RefineLB/GreedyLB at the same size is the centralized-vs-distributed
// planning-latency comparison Figure 7 is about.
func StrategyPlanBenchmarks() []NamedBench {
	var out []NamedBench
	for _, st := range PlanBenchStrategies {
		strat := st.Build()
		for _, sz := range PlanBenchSizes {
			if st.MaxCores > 0 && sz.Cores > st.MaxCores {
				continue
			}
			stats := SyntheticStats(sz.Cores, sz.TasksPerCore)
			out = append(out, NamedBench{
				Name: fmt.Sprintf("StrategyPlan%s%s", st.Name, sz.Label),
				Run:  func() { strat.Plan(stats) },
			})
		}
	}
	for _, sz := range PlanBenchSizes {
		out = append(out, diffusionPerPEBench(sz.Label, sz.Cores, sz.TasksPerCore))
	}
	return out
}

// diffusionPerPEBench times one PE's complete LB-step planning work:
// building its planner from local measurements, then Summary + Plan +
// Sample for every exchange round. The measured PE sits on the hotspot
// boundary — overloaded, with an underloaded neighbor — so Plan computes
// gradients and selects outbound tasks every round rather than idling.
// Peer summaries are the neighbors' true pre-LB loads, held fixed across
// rounds (pessimistic: the PE keeps seeing a gradient and keeps paying
// for transfer selection). This cost is O(local tasks + neighbors) by
// construction and should stay near-flat from 32 to 1024 cores.
func diffusionPerPEBench(label string, cores, tasksPerCore int) NamedBench {
	d := &lb.DiffusionLB{}
	stats := SyntheticStats(cores, tasksPerCore)
	w, _ := core.MeshShape(cores)
	pe := (w+3)/4 - 1 // hotspot corner: x = hot width - 1, y = 0

	local := core.LocalPE{PE: pe, Speed: 1}
	perPE := make([]float64, cores)
	for _, t := range stats.Tasks {
		perPE[t.PE] += t.Load
		if t.PE == pe {
			local.Tasks = append(local.Tasks, core.TransferTask{ID: t.ID, Load: t.Load, Bytes: t.Bytes})
		}
	}
	nbrs := d.Neighbors(pe, cores)
	peers := make([]core.PeerLoad, len(nbrs))
	for i, q := range nbrs {
		peers[i] = core.PeerLoad{PE: q, Load: perPE[q], Speed: 1, Tasks: tasksPerCore}
	}
	rounds := d.MaxRounds()

	return NamedBench{
		Name: fmt.Sprintf("StrategyPlanDiffusionLBPerPE%s", label),
		Run: func() {
			p := d.NewPlanner(local, cores)
			for r := 0; r < rounds; r++ {
				p.Summary()
				p.Plan(peers)
				p.Sample()
			}
		},
	}
}
