package charm

import (
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/sim"
)

func hierRun(t *testing.T, nodes, coresPer, chares, arity int, hier bool, hog bool) (*RTS, sim.Time) {
	t.Helper()
	eng, m, n := testWorld(nodes, coresPer)
	if hog {
		h := m.NewThread("hog", m.Core(coresPer-1), 1)
		var loop func()
		loop = func() { h.Run(0.5, loop) }
		loop()
	}
	r := NewRTS(Config{
		Machine: m, Net: n, Cores: allCores(m),
		Strategy:       &core.RefineLB{EpsilonFrac: 0.02},
		HierarchicalLB: hier,
	})
	r.arity = arity
	r.NewArray("w", chares, func(int) Chare { return &iterChare{iters: 40, cost: 0.005, syncEvery: 10} })
	r.Start()
	runToFinish(t, eng, r, 300)
	return r, r.FinishTime()
}

func TestHierarchicalLBCompletes(t *testing.T) {
	for _, arity := range []int{2, 4} {
		r, _ := hierRun(t, 2, 4, 128, arity, true, false)
		if r.LBSteps() != 3 {
			t.Fatalf("arity %d: %d LB steps, want 3 (40 iters / sync 10, last is Done)", arity, r.LBSteps())
		}
	}
}

func TestHierarchicalMatchesFlatDecisions(t *testing.T) {
	// On a deterministic interference-free workload the measured stats
	// are identical, so flat and hierarchical gathers must produce the
	// same migrations (the protocol changes the path, not the data).
	flat, flatWall := hierRun(t, 2, 4, 128, 4, false, false)
	hier, hierWall := hierRun(t, 2, 4, 128, 4, true, false)
	if flat.Migrations() != hier.Migrations() {
		t.Fatalf("flat migrated %d, hierarchical %d", flat.Migrations(), hier.Migrations())
	}
	// Timing differs only by protocol latency: within 5%.
	rel := float64(hierWall-flatWall) / float64(flatWall)
	if rel < -0.05 || rel > 0.05 {
		t.Fatalf("hierarchical wall %v deviates %.1f%% from flat %v", hierWall, rel*100, flatWall)
	}
}

func TestHierarchicalLBUnderInterference(t *testing.T) {
	noLB := func() sim.Time {
		eng, m, n := testWorld(1, 4)
		h := m.NewThread("hog", m.Core(3), 1)
		var loop func()
		loop = func() { h.Run(0.5, loop) }
		loop()
		r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
		r.NewArray("w", 128, func(int) Chare { return &iterChare{iters: 40, cost: 0.005, syncEvery: 10} })
		r.Start()
		runToFinish(t, eng, r, 300)
		return r.FinishTime()
	}()
	hier, hierWall := hierRun(t, 1, 4, 128, 2, true, true)
	if hier.Migrations() == 0 {
		t.Fatal("hierarchical LB migrated nothing under interference")
	}
	if hierWall >= noLB {
		t.Fatalf("hierarchical LB (%v) not faster than noLB (%v)", hierWall, noLB)
	}
}

func TestHierarchicalWithEmptySubtrees(t *testing.T) {
	// 3 chares on 8 PEs (block placement: PEs 0, 2, 5); the chare-less
	// subtrees must be probed, not deadlock the gather.
	eng, m, n := testWorld(2, 4)
	r := NewRTS(Config{
		Machine: m, Net: n, Cores: allCores(m),
		Strategy:       &core.RefineLB{EpsilonFrac: 0.02},
		HierarchicalLB: true,
	})
	r.arity = 2
	r.NewArray("w", 3, func(int) Chare { return &iterChare{iters: 20, cost: 0.01, syncEvery: 5} })
	r.Start()
	runToFinish(t, eng, r, 300)
	if r.LBSteps() < 1 {
		t.Fatal("no LB steps completed with empty subtrees")
	}
}

func TestHierarchicalSinglePE(t *testing.T) {
	r, _ := hierRun(t, 1, 1, 8, 2, true, false)
	if r.LBSteps() != 3 {
		t.Fatalf("%d LB steps on a single PE, want 3", r.LBSteps())
	}
}

func TestHierarchicalDeterministic(t *testing.T) {
	_, a := hierRun(t, 2, 4, 64, 2, true, true)
	_, b := hierRun(t, 2, 4, 64, 2, true, true)
	if a != b {
		t.Fatalf("hierarchical runs differ: %v vs %v", a, b)
	}
}
