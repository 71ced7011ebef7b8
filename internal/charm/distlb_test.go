package charm

import (
	"testing"

	"cloudlb/internal/lb"
	"cloudlb/internal/sim"
)

func diffRun(t *testing.T, nodes, coresPer, chares int, hog bool) (*RTS, sim.Time) {
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
		Strategy: &lb.DiffusionLB{},
	})
	r.NewArray("w", chares, func(int) Chare { return &iterChare{iters: 40, cost: 0.005, syncEvery: 10} })
	watchInvariants(t, r)
	r.Start()
	runToFinish(t, eng, r, 300)
	return r, r.FinishTime()
}

func TestDiffusionLBProtocolCompletes(t *testing.T) {
	r, _ := diffRun(t, 2, 4, 128, false)
	if r.LBSteps() != 3 {
		t.Fatalf("%d LB steps, want 3 (40 iters / sync 10, last is Done)", r.LBSteps())
	}
}

func TestDiffusionLBProtocolUnderInterference(t *testing.T) {
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
	r, wall := diffRun(t, 1, 4, 128, true)
	if r.Migrations() == 0 {
		t.Fatal("diffusion migrated nothing under interference")
	}
	if wall >= noLB {
		t.Fatalf("diffusion LB (%v) not faster than noLB (%v)", wall, noLB)
	}
}

func TestDiffusionLBProtocolWithEmptyPEs(t *testing.T) {
	// 3 chares on 8 PEs (block placement: PEs 0, 2, 5); the chare-less PEs
	// must be probed into readiness, not deadlock the step.
	r, _ := diffRun(t, 2, 4, 3, false)
	if r.LBSteps() < 1 {
		t.Fatal("no LB steps completed with chare-less PEs")
	}
}

func TestDiffusionLBProtocolSinglePE(t *testing.T) {
	r, _ := diffRun(t, 1, 1, 8, false)
	if r.LBSteps() != 3 {
		t.Fatalf("%d LB steps on a single PE, want 3", r.LBSteps())
	}
}

func TestDiffusionLBProtocolDeterministic(t *testing.T) {
	_, a := diffRun(t, 2, 4, 64, true)
	_, b := diffRun(t, 2, 4, 64, true)
	if a != b {
		t.Fatalf("diffusion runs differ: %v vs %v", a, b)
	}
}

// TestDiffusionLBSpreadsHotSpot checks the protocol actually moves load
// off an interfered PE: the hog's victim should end the run hosting fewer
// chares than it started with.
func TestDiffusionLBSpreadsHotSpot(t *testing.T) {
	r, _ := diffRun(t, 1, 4, 64, true)
	// Block placement starts 16 chares on the hogged PE 3.
	if n := locationsOn(r, 3); n >= 16 {
		t.Fatalf("hogged PE still hosts %d of its initial 16 chares", n)
	}
}

func TestDiffusionLBRevokedPE(t *testing.T) {
	// Hard-kill a PE mid-run under diffusion: the runtime must evacuate it,
	// keep the step protocol alive, and never hand load back to it. The
	// send-side panic in diffSendTransfers enforces the never-target-offline
	// invariant throughout the run.
	eng, r := elasticWorkload(t, &lb.DiffusionLB{}, 60, 10)
	r.Start()
	eng.After(0.25, func() { r.RevokePE(2, 0) })
	runToFinish(t, eng, r, 300)
	if r.Evacuations() == 0 {
		t.Fatal("hard kill evacuated nothing")
	}
	if n := locationsOn(r, 2); n != 0 {
		t.Fatalf("revoked PE still hosts %d chares", n)
	}
	if r.LBSteps() == 0 {
		t.Fatal("no LB steps completed after the revocation")
	}
}

func TestDiffusionRejectsHierarchicalConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic combining DiffusionLB with HierarchicalLB")
		}
	}()
	_, m, n := testWorld(1, 4)
	NewRTS(Config{
		Machine: m, Net: n, Cores: allCores(m),
		Strategy: &lb.DiffusionLB{}, HierarchicalLB: true,
	})
}
