// DiffusionLB: a fully distributed, communication-aware diffusion load
// balancer in the style of "Communication-Aware Diffusion Load Balancing
// for Persistently Interacting Objects". No PE ever sees the global task
// list. Each round, every PE compares its speed-normalized load against
// its mesh neighbors' O(1) summaries and pushes tasks along the gradient:
// the flow toward a lighter neighbor is Alpha·(u_p − u_j)/(deg+1) — the
// classic first-order diffusion step, stable for Alpha ≤ 1 on bounded-
// degree graphs — and tasks are chosen to fill that flow heaviest-first,
// preferring the neighbor each task already exchanges the most bytes
// with, so ghost-exchange partners stay co-located. Rounds stop when a
// tree reduction reports no task moved or the maximum normalized load is
// within Tol of the live-core average (Eq. 1), or after Rounds rounds.
package lb

import (
	"slices"

	"cloudlb/internal/core"
)

// DiffusionLB is both a core.Strategy (Plan drives the per-PE planners
// synchronously over a Stats snapshot — offline planning, tests and
// benchmarks) and a core.DistributedStrategy (the charm runtime drives
// the same planners as a neighbor-exchange protocol over the simulated
// interconnect). Both drivers execute the identical round structure, so
// they produce the identical final placement.
type DiffusionLB struct {
	// Alpha is the diffusion gain on each edge (default 0.6). Values in
	// (0, 1] are stable; larger moves load faster but overshoots sooner.
	Alpha float64
	// Tol is the convergence band: rounds stop once the maximum
	// normalized PE load is within Tol of the live-core average
	// (default DefaultDiffusionTol).
	Tol float64
	// Rounds bounds the exchange rounds per LB step (default
	// DefaultDiffusionRounds).
	Rounds int
}

// The defaults a zero DiffusionLB.Tol and Rounds take.
const (
	DefaultDiffusionTol    = 0.05
	DefaultDiffusionRounds = 16
)

// Name implements core.Strategy.
func (d *DiffusionLB) Name() string { return "DiffusionLB" }

func (d *DiffusionLB) alpha() float64 {
	if d.Alpha <= 0 {
		return 0.6
	}
	return d.Alpha
}

func (d *DiffusionLB) tol() float64 {
	if d.Tol <= 0 {
		return DefaultDiffusionTol
	}
	return d.Tol
}

// MaxRounds implements core.DistributedStrategy.
func (d *DiffusionLB) MaxRounds() int {
	if d.Rounds <= 0 {
		return DefaultDiffusionRounds
	}
	return d.Rounds
}

// Neighbors implements core.DistributedStrategy: the PEs are arranged in
// a most-square 2D mesh and exchange with their 4-neighborhood — the
// topology the stencil applications communicate over.
func (d *DiffusionLB) Neighbors(pe, numPEs int) []int {
	return core.MeshNeighbors(pe, numPEs)
}

// Converged implements core.DistributedStrategy.
func (d *DiffusionLB) Converged(t core.TermSample) bool {
	if t.Moved == 0 || t.Speed <= 0 {
		return true
	}
	return t.MaxNorm <= t.Load/t.Speed*(1+d.tol())
}

// NewPlanner implements core.DistributedStrategy.
func (d *DiffusionLB) NewPlanner(local core.LocalPE, numPEs int) core.DistributedPlanner {
	speed := local.Speed
	if speed <= 0 {
		speed = 1
	}
	p := &diffPlanner{
		lb:      d,
		pe:      local.PE,
		speed:   speed,
		bg:      local.Background,
		offline: local.Offline,
		tasks:   append([]core.TransferTask(nil), local.Tasks...),
		dirty:   true,
	}
	for _, t := range p.tasks {
		p.sum += t.Load
	}
	if local.Affinity != nil {
		p.aff = make(map[core.TaskID][]float64, len(local.Tasks))
		for i, t := range local.Tasks {
			if i < len(local.Affinity) && local.Affinity[i] != nil {
				p.aff[t.ID] = append([]float64(nil), local.Affinity[i]...)
			}
		}
	}
	return p
}

// diffPlanner is one PE's diffusion state: its own tasks, their neighbor
// communication volumes, and a running load sum — O(local tasks +
// neighbors), never the global task list.
type diffPlanner struct {
	lb      *DiffusionLB
	pe      int
	speed   float64
	bg      float64
	offline bool

	// tasks is kept heaviest-first (ID tie-break) — but only sorted
	// lazily, when this planner actually selects tasks to send: balanced
	// and underloaded PEs never pay the sort.
	tasks []core.TransferTask
	dirty bool
	sum   float64 // Σ task loads

	// aff maps a task to its per-neighbor-slot communication bytes over
	// the last interval (nil when the driver has no communication data;
	// tasks received mid-protocol have no entry).
	aff map[core.TaskID][]float64

	moved int // tasks handed off in the latest Plan call
	deg   int // neighbor count, learned at the first Plan

	// Scratch reused across rounds.
	budgets []float64
	out     []core.Transfer
}

func (p *diffPlanner) sortTasks() {
	if !p.dirty {
		return
	}
	p.dirty = false
	slices.SortFunc(p.tasks, func(a, b core.TransferTask) int {
		if a.Load != b.Load {
			if a.Load > b.Load {
				return -1
			}
			return 1
		}
		return a.ID.Compare(b.ID)
	})
}

func (p *diffPlanner) norm() float64 { return (p.bg + p.sum) / p.speed }

// Summary implements core.DistributedPlanner.
func (p *diffPlanner) Summary() core.PeerLoad {
	return core.PeerLoad{
		PE: p.pe, Load: p.bg + p.sum, Speed: p.speed,
		Tasks: len(p.tasks), Offline: p.offline,
	}
}

// Plan implements core.DistributedPlanner: compute this round's outbound
// flow toward each lighter online neighbor and fill it with tasks,
// heaviest-first, best communication affinity first.
func (p *diffPlanner) Plan(peers []core.PeerLoad) []core.Transfer {
	p.deg = len(peers)
	p.moved = 0
	if len(p.tasks) == 0 {
		return nil
	}
	if p.offline {
		return p.planOffline(peers)
	}
	if cap(p.budgets) < len(peers) {
		p.budgets = make([]float64, len(peers))
	}
	budgets := p.budgets[:len(peers)]
	my := p.norm()
	a := p.lb.alpha()
	anyBudget := false
	for j, q := range peers {
		budgets[j] = 0
		if q.Offline {
			continue
		}
		qs := q.Speed
		if qs <= 0 {
			qs = 1
		}
		if gap := my - q.Load/qs; gap > 0 {
			budgets[j] = a * gap / float64(len(peers)+1) * qs
			anyBudget = true
		}
	}
	if anyBudget {
		if out := p.fill(peers, budgets, false); p.moved > 0 {
			return out
		}
	}
	// Coarse-grain fallback: when no task fits the alpha-scaled flow (a
	// few heavy tasks, large gaps), hand off the heaviest single task
	// whose move strictly reduces the pairwise load maximum — without
	// this, a hot PE holding tasks larger than the per-round flow could
	// never shed at all.
	return p.fallbackOne(peers)
}

// fallbackOne sends at most one task: the heaviest that fits some online
// neighbor with (my − theirs) normalized gap exceeding the task's load —
// the condition under which the move strictly lowers max(mine, theirs),
// so pairwise exchanges cannot oscillate.
func (p *diffPlanner) fallbackOne(peers []core.PeerLoad) []core.Transfer {
	p.sortTasks()
	my := p.norm()
	for i, t := range p.tasks {
		best := -1
		var bestAff, bestGap float64
		aff := p.aff[t.ID]
		for j, q := range peers {
			if q.Offline {
				continue
			}
			qs := q.Speed
			if qs <= 0 {
				qs = 1
			}
			gap := (my - q.Load/qs) * qs
			if t.Load >= gap {
				continue
			}
			av := 0.0
			if j < len(aff) {
				av = aff[j]
			}
			if best < 0 || av > bestAff ||
				(av == bestAff && (gap > bestGap ||
					(gap == bestGap && q.PE < peers[best].PE))) {
				best, bestAff, bestGap = j, av, gap
			}
		}
		if best < 0 {
			continue
		}
		p.sum -= t.Load
		p.moved = 1
		delete(p.aff, t.ID)
		p.tasks = slices.Delete(p.tasks, i, i+1)
		p.out = p.out[:0]
		p.out = append(p.out, core.Transfer{To: peers[best].PE, Tasks: []core.TransferTask{t}})
		return p.out
	}
	return nil
}

// planOffline sheds everything: a revoked core pushes all its tasks to
// online neighbors, balancing what each receives. If every neighbor is
// offline too the tasks stay put this round — the synchronous driver's
// final drain (or the runtime's evacuation) handles the stranded rest.
func (p *diffPlanner) planOffline(peers []core.PeerLoad) []core.Transfer {
	if cap(p.budgets) < len(peers) {
		p.budgets = make([]float64, len(peers))
	}
	budgets := p.budgets[:len(peers)]
	any := false
	for j, q := range peers {
		budgets[j] = 0
		if !q.Offline {
			// Effectively unbounded: everything must leave.
			budgets[j] = p.bg + p.sum + 1
			any = true
		}
	}
	if !any {
		return nil
	}
	return p.fill(peers, budgets, true)
}

// fill assigns tasks to neighbors, heaviest task first. Each task goes to
// the neighbor with the highest communication affinity for it, ties
// broken by the larger remaining budget, then the lower PE. With force
// set (offline shedding) a task fits any neighbor with a positive
// budget; otherwise it must fit within the remaining diffusion flow, so
// a round never overshoots the gradient.
func (p *diffPlanner) fill(peers []core.PeerLoad, budgets []float64, force bool) []core.Transfer {
	p.sortTasks()
	p.out = p.out[:0]
	slotOut := make([][]core.TransferTask, len(peers))
	kept := p.tasks[:0]
	for _, t := range p.tasks {
		best := -1
		var bestAff float64
		aff := p.aff[t.ID]
		for j := range peers {
			if budgets[j] <= 0 {
				continue
			}
			if !force && t.Load > budgets[j] {
				continue
			}
			av := 0.0
			if j < len(aff) {
				av = aff[j]
			}
			if best < 0 || av > bestAff ||
				(av == bestAff && (budgets[j] > budgets[best] ||
					(budgets[j] == budgets[best] && peers[j].PE < peers[best].PE))) {
				best, bestAff = j, av
			}
		}
		if best < 0 {
			kept = append(kept, t)
			continue
		}
		budgets[best] -= t.Load
		p.sum -= t.Load
		p.moved++
		delete(p.aff, t.ID)
		slotOut[best] = append(slotOut[best], t)
	}
	p.tasks = kept
	for j, ts := range slotOut {
		if len(ts) > 0 {
			p.out = append(p.out, core.Transfer{To: peers[j].PE, Tasks: ts})
		}
	}
	return p.out
}

// Receive implements core.DistributedPlanner.
func (p *diffPlanner) Receive(tasks []core.TransferTask) {
	for _, t := range tasks {
		p.sum += t.Load
	}
	p.tasks = append(p.tasks, tasks...)
	p.dirty = true
}

// Sample implements core.DistributedPlanner.
func (p *diffPlanner) Sample() core.TermSample {
	s := core.TermSample{Load: p.bg + p.sum, Moved: p.moved}
	if !p.offline {
		s.Speed = p.speed
		s.MaxNorm = p.norm()
	}
	return s
}

// StateBytes implements core.DistributedPlanner: a deterministic estimate
// of the planner's footprint — task records, per-neighbor budgets, and
// affinity rows — O(local tasks + neighbors) by construction.
func (p *diffPlanner) StateBytes() int {
	b := 96 + 48*len(p.tasks) + 16*p.deg
	b += len(p.aff) * (32 + 8*p.deg)
	return b
}

// Plan implements core.Strategy: the synchronous driver. It builds one
// planner per core and executes the same snapshot-plan-apply round
// structure as the runtime protocol: all summaries are taken, then every
// planner plans against that snapshot, then all transfers are applied —
// the barrier the interconnect's round messages enforce in the
// distributed run. A final drain pass force-assigns any task stranded on
// an offline core whose whole neighborhood was offline.
func (d *DiffusionLB) Plan(s core.Stats) []core.Move {
	if len(s.Cores) == 0 || len(s.Tasks) == 0 {
		return nil
	}
	n := len(s.Cores)
	// Mesh positions follow ascending PE order (the runtime's PE indices).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return s.Cores[a].PE - s.Cores[b].PE })
	posOfPE := make(map[int]int, n)
	for pos, ci := range order {
		posOfPE[s.Cores[ci].PE] = pos
	}
	_, tasksOf := core.CoreLoads(s)

	planners := make([]*diffPlanner, n)
	anyOnline := false
	for pos, ci := range order {
		c := s.Cores[ci]
		if !c.Offline {
			anyOnline = true
		}
		local := core.LocalPE{
			PE: c.PE, Background: c.Background, Speed: c.Speed, Offline: c.Offline,
		}
		for _, ti := range tasksOf[ci] {
			t := s.Tasks[ti]
			local.Tasks = append(local.Tasks, core.TransferTask{ID: t.ID, Load: t.Load, Bytes: t.Bytes})
		}
		planners[pos] = d.NewPlanner(local, n).(*diffPlanner)
	}
	if !anyOnline {
		return nil
	}

	owner := make(map[core.TaskID]int)
	sums := make([]core.PeerLoad, n)
	incoming := make([][]core.TransferTask, n)
	var peers []core.PeerLoad
	for round := 1; ; round++ {
		for pos, p := range planners {
			sums[pos] = p.Summary()
		}
		for pos := range incoming {
			incoming[pos] = incoming[pos][:0]
		}
		for pos, p := range planners {
			nbr := core.MeshNeighbors(pos, n)
			peers = peers[:0]
			for _, q := range nbr {
				peers = append(peers, sums[q])
			}
			for _, tr := range p.Plan(peers) {
				dst := posOfPE[tr.To]
				incoming[dst] = append(incoming[dst], tr.Tasks...)
				for _, t := range tr.Tasks {
					owner[t.ID] = tr.To
				}
			}
		}
		var merged core.TermSample
		for pos, p := range planners {
			if len(incoming[pos]) > 0 {
				p.Receive(incoming[pos])
			}
			merged.Merge(p.Sample())
		}
		if d.Converged(merged) || round >= d.MaxRounds() {
			break
		}
	}

	// Drain: tasks still on offline planners (offline PE with an entirely
	// offline neighborhood) go to the globally least-loaded online PE —
	// leaving a task on a revoked core is never acceptable.
	var stranded []core.TransferTask
	for _, p := range planners {
		if p.offline && len(p.tasks) > 0 {
			p.sortTasks()
			stranded = append(stranded, p.tasks...)
		}
	}
	if len(stranded) > 0 {
		loads := make([]float64, n)
		for pos, p := range planners {
			loads[pos] = p.bg + p.sum
		}
		for _, t := range stranded {
			best := -1
			for pos, p := range planners {
				if p.offline {
					continue
				}
				if best < 0 || loads[pos] < loads[best] ||
					(loads[pos] == loads[best] && p.pe < planners[best].pe) {
					best = pos
				}
			}
			loads[best] += t.Load
			owner[t.ID] = planners[best].pe
		}
	}

	var moves []core.Move
	for _, t := range s.Tasks {
		if to, ok := owner[t.ID]; ok && to != t.PE {
			moves = append(moves, core.Move{Task: t.ID, To: to})
		}
	}
	return moves
}
