package lb

import (
	"math"
	"math/rand"
	"testing"

	"cloudlb/internal/core"
)

func mkStats(taskLoads map[int][]float64, bg map[int]float64) core.Stats {
	var s core.Stats
	for pe := 0; pe < 64; pe++ {
		loads, ok := taskLoads[pe]
		if !ok {
			continue
		}
		s.Cores = append(s.Cores, core.CoreSample{PE: pe, Background: bg[pe], Speed: 1})
		for i, l := range loads {
			s.Tasks = append(s.Tasks, core.Task{
				ID: core.TaskID{Array: "a", Index: pe*100 + i}, PE: pe, Load: l, Bytes: 1 << 14,
			})
		}
	}
	s.WallSinceLB = 10
	return s
}

func applyMoves(s core.Stats, moves []core.Move) map[int]float64 {
	loads := map[int]float64{}
	for _, c := range s.Cores {
		loads[c.PE] = c.Background
	}
	dest := map[core.TaskID]int{}
	for _, m := range moves {
		dest[m.Task] = m.To
	}
	for _, t := range s.Tasks {
		pe := t.PE
		if to, ok := dest[t.ID]; ok {
			pe = to
		}
		loads[pe] += t.Load
	}
	return loads
}

func spread(loads map[int]float64) float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range loads {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

func TestNoLB(t *testing.T) {
	s := mkStats(map[int][]float64{0: {5}, 1: {}}, nil)
	if moves := (NoLB{}).Plan(s); moves != nil {
		t.Fatalf("NoLB planned %v", moves)
	}
	if (NoLB{}).Name() != "NoLB" {
		t.Fatal("bad name")
	}
}

func TestGreedyBalances(t *testing.T) {
	s := mkStats(map[int][]float64{
		0: {1, 1, 1, 1, 1, 1, 1, 1},
		1: {}, 2: {}, 3: {},
	}, nil)
	moves := (GreedyLB{}).Plan(s)
	after := applyMoves(s, moves)
	if spread(after) > 1e-9 {
		t.Fatalf("greedy left spread %v: %v", spread(after), after)
	}
}

func TestGreedyAccountsForBackground(t *testing.T) {
	s := mkStats(map[int][]float64{0: {1, 1}, 1: {}}, map[int]float64{1: 2})
	moves := (GreedyLB{}).Plan(s)
	after := applyMoves(s, moves)
	// Core 1 already carries 2 of background; both tasks stay on core 0.
	if after[0] != 2 || after[1] != 2 {
		t.Fatalf("greedy placement %v, want 2/2", after)
	}
	if len(moves) != 0 {
		t.Fatalf("unnecessary moves %v", moves)
	}
}

func TestGreedyMigratesMoreThanRefine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tl := map[int][]float64{}
	for pe := 0; pe < 8; pe++ {
		for i := 0; i < 16; i++ {
			tl[pe] = append(tl[pe], 0.05+rng.Float64()*0.1)
		}
	}
	bg := map[int]float64{2: 0.8}
	s := mkStats(tl, bg)
	greedy := (GreedyLB{}).Plan(s)
	refine := (&core.RefineLB{EpsilonFrac: 0.05}).Plan(s)
	if len(greedy) <= len(refine) {
		t.Fatalf("greedy moved %d, refine %d; refinement should migrate less", len(greedy), len(refine))
	}
	if len(refine) == 0 {
		t.Fatal("refine did nothing about the interfered core")
	}
}

func TestRefineInternalIgnoresBackground(t *testing.T) {
	// Application perfectly balanced, interference on core 0: the blind
	// ablation must do nothing while the real strategy reacts.
	tl := map[int][]float64{}
	for pe := 0; pe < 4; pe++ {
		for i := 0; i < 8; i++ {
			tl[pe] = append(tl[pe], 0.25)
		}
	}
	s := mkStats(tl, map[int]float64{0: 1.0})
	blind := &RefineInternalLB{Inner: core.RefineLB{EpsilonFrac: 0.05}}
	if moves := blind.Plan(s); len(moves) != 0 {
		t.Fatalf("blind refine moved %v despite balanced app load", moves)
	}
	aware := &core.RefineLB{EpsilonFrac: 0.05}
	if moves := aware.Plan(s); len(moves) == 0 {
		t.Fatal("aware refine did not react to interference")
	}
}

func TestRefineInternalStillFixesAppImbalance(t *testing.T) {
	s := mkStats(map[int][]float64{0: {0.5, 0.5, 0.5, 0.5}, 1: {}}, nil)
	blind := &RefineInternalLB{Inner: core.RefineLB{EpsilonFrac: 0.05}}
	if moves := blind.Plan(s); len(moves) == 0 {
		t.Fatal("blind refine ignored an application-internal imbalance")
	}
}

func TestRefineInternalDoesNotMutateInput(t *testing.T) {
	s := mkStats(map[int][]float64{0: {1}}, map[int]float64{0: 2})
	blind := &RefineInternalLB{}
	blind.Plan(s)
	if s.Cores[0].Background != 2 {
		t.Fatal("ablation mutated the caller's stats")
	}
}

func TestThresholdMovesOffOverloadedCore(t *testing.T) {
	s := mkStats(map[int][]float64{0: {1, 1, 1, 1}, 1: {1}, 2: {1}}, nil)
	th := &ThresholdLB{}
	moves := th.Plan(s)
	if len(moves) == 0 {
		t.Fatal("threshold LB did nothing")
	}
	for _, m := range moves {
		if m.To == 0 {
			t.Fatalf("moved onto the overloaded core: %v", m)
		}
	}
}

func TestThresholdRespectsThreshold(t *testing.T) {
	s := mkStats(map[int][]float64{0: {1.1}, 1: {1}}, nil)
	th := &ThresholdLB{}
	if moves := th.Plan(s); len(moves) != 0 {
		t.Fatalf("moved %v within threshold", moves)
	}
}

func TestMigrationCostAwareSkipsWhenCostDominates(t *testing.T) {
	// Real imbalance, but huge objects over a slow network: migration
	// not worth it.
	tl := map[int][]float64{}
	for pe := 0; pe < 4; pe++ {
		for i := 0; i < 8; i++ {
			tl[pe] = append(tl[pe], 0.25)
		}
	}
	s := mkStats(tl, map[int]float64{0: 2.0})
	for i := range s.Tasks {
		s.Tasks[i].Bytes = 1 << 28 // 256 MiB objects
	}
	m := &MigrationCostAwareLB{
		Inner:          &core.RefineLB{EpsilonFrac: 0.05},
		BytesPerSecond: 1e8,
	}
	if moves := m.Plan(s); len(moves) != 0 {
		t.Fatalf("committed %d moves despite prohibitive cost", len(moves))
	}
	if m.Skipped != 1 {
		t.Fatalf("Skipped=%d, want 1", m.Skipped)
	}
}

func TestMigrationCostAwareCommitsWhenGainDominates(t *testing.T) {
	tl := map[int][]float64{}
	for pe := 0; pe < 4; pe++ {
		for i := 0; i < 8; i++ {
			tl[pe] = append(tl[pe], 0.25)
		}
	}
	s := mkStats(tl, map[int]float64{0: 2.0}) // heavy interference
	for i := range s.Tasks {
		s.Tasks[i].Bytes = 1 << 10 // tiny objects
	}
	m := &MigrationCostAwareLB{
		Inner:          &core.RefineLB{EpsilonFrac: 0.05},
		BytesPerSecond: 1e8,
	}
	if moves := m.Plan(s); len(moves) == 0 {
		t.Fatal("skipped migrations despite large gain and negligible cost")
	}
	if m.Skipped != 0 {
		t.Fatalf("Skipped=%d, want 0", m.Skipped)
	}
}

func TestMigrationCostAwareEmptyPlanPassthrough(t *testing.T) {
	s := mkStats(map[int][]float64{0: {1}, 1: {1}}, nil)
	m := &MigrationCostAwareLB{Inner: NoLB{}}
	if moves := m.Plan(s); len(moves) != 0 {
		t.Fatal("invented moves")
	}
	if m.Skipped != 0 {
		t.Fatal("counted a skip for an empty plan")
	}
}

func TestStrategyNames(t *testing.T) {
	if (&RefineInternalLB{}).Name() != "RefineInternalLB" {
		t.Fatal("RefineInternalLB name")
	}
	if (&ThresholdLB{}).Name() != "ThresholdLB" {
		t.Fatal("ThresholdLB name")
	}
	m := &MigrationCostAwareLB{Inner: NoLB{}}
	if m.Name() != "MigrationCostAware(NoLB)" {
		t.Fatalf("got %q", m.Name())
	}
}

// Property: GreedyLB's resulting spread is never worse than the input
// spread for random workloads.
func TestGreedyNeverWorsensSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		tl := map[int][]float64{}
		cores := 2 + rng.Intn(8)
		for pe := 0; pe < cores; pe++ {
			n := rng.Intn(10)
			for i := 0; i < n; i++ {
				tl[pe] = append(tl[pe], rng.Float64())
			}
		}
		s := mkStats(tl, nil)
		before := applyMoves(s, nil)
		after := applyMoves(s, (GreedyLB{}).Plan(s))
		if spread(after) > spread(before)+1e-9 {
			t.Fatalf("trial %d: spread worsened %v -> %v", trial, spread(before), spread(after))
		}
	}
}
