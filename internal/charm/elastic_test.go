package charm

import (
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/sim"
)

// elasticWorkload installs 8 self-ticking chares on 4 PEs (block placement
// puts two on each) and returns the runtime.
func elasticWorkload(t *testing.T, strat core.Strategy, iters, syncEvery int) (*sim.Engine, *RTS) {
	t.Helper()
	eng, m, n := testWorld(1, 6)
	r := NewRTS(Config{
		Machine:  m,
		Net:      n,
		Cores:    []int{0, 1, 2, 3},
		Strategy: strat,
	})
	r.NewArray("w", 8, func(int) Chare {
		return &iterChare{iters: iters, cost: 0.01, syncEvery: syncEvery}
	})
	watchInvariants(t, r)
	return eng, r
}

func locationsOn(r *RTS, peIdx int) int {
	n := 0
	for i := 0; i < r.ArraySize("w"); i++ {
		if r.Location(ChareID{Array: "w", Index: i}) == peIdx {
			n++
		}
	}
	return n
}

func TestRevokeWithWarningEvacuatesEagerly(t *testing.T) {
	eng, r := elasticWorkload(t, nil, 20, 0)
	r.Start()
	var duringWarning int
	eng.At(0.2, func() { r.RevokePE(1, 0.25) })
	// Inside the warning window the chares must already be gone but the
	// core must still be up, serving whatever CPU it can.
	eng.At(0.3, func() {
		duringWarning = locationsOn(r, 1)
		if !r.Machine().Core(1).Online() {
			t.Error("core went offline before the warning expired")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish after revocation")
	}
	if duringWarning != 0 {
		t.Fatalf("%d chares still on the revoked PE during the warning window", duringWarning)
	}
	if got := r.Evacuations(); got != 2 {
		t.Fatalf("Evacuations=%d, want 2", got)
	}
	if !r.Retired(1) {
		t.Fatal("PE 1 not retired")
	}
	if r.Machine().Core(1).Online() {
		t.Fatal("core 1 still online after the warning expired")
	}
}

func TestHardKillEvacuatesOnlyAfterDetectionDelay(t *testing.T) {
	eng, r := elasticWorkload(t, nil, 20, 0)
	r.Start()
	var beforeDetect, strandedBefore int
	eng.At(0.2, func() { r.RevokePE(1, 0) })
	eng.At(0.22, func() {
		beforeDetect = r.Evacuations()
		strandedBefore = locationsOn(r, 1)
		if r.Machine().Core(1).Online() {
			t.Error("hard-killed core still online")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish after hard kill")
	}
	if beforeDetect != 0 || strandedBefore != 2 {
		t.Fatalf("before detection: %d evacuations, %d stranded; want 0 and 2",
			beforeDetect, strandedBefore)
	}
	if got := r.Evacuations(); got != 2 {
		t.Fatalf("Evacuations=%d, want 2", got)
	}
	if got := locationsOn(r, 1); got != 0 {
		t.Fatalf("%d chares left on the dead PE", got)
	}
}

func TestElasticOpsDeferredDuringLBStep(t *testing.T) {
	_, r := elasticWorkload(t, &core.RefineLB{}, 20, 5)
	// Simulate an LB step in flight on another PE.
	r.pes[2].inSync = true
	r.RevokePE(1, 0)
	if r.pes[1].retired {
		t.Fatal("revocation applied while an LB step was in flight")
	}
	if len(r.pendingElastic) != 1 {
		t.Fatalf("%d deferred ops, want 1", len(r.pendingElastic))
	}
	r.pes[2].inSync = false
	r.drainElastic()
	if !r.pes[1].retired {
		t.Fatal("deferred revocation not applied after the step")
	}
	if r.Machine().Core(1).Online() {
		t.Fatal("core still online after deferred revocation")
	}
}

func TestRestoreOnReplacementCoreRebalances(t *testing.T) {
	eng, r := elasticWorkload(t, &core.RefineLB{}, 60, 10)
	r.Start()
	eng.At(0.3, func() { r.RevokePE(1, 0.1) })
	eng.At(0.9, func() { r.RestorePE(1, 4) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	if r.Retired(1) {
		t.Fatal("PE 1 still retired after restore")
	}
	if got := r.CoreOf(1); got != 4 {
		t.Fatalf("PE 1 on core %d after restore, want replacement core 4", got)
	}
	if r.Machine().Core(1).Online() {
		t.Fatal("the revoked instance's core came back online under a replacement-core restore")
	}
	if r.Evacuations() != 2 {
		t.Fatalf("Evacuations=%d, want 2", r.Evacuations())
	}
	// RefineLB must have repopulated the replacement at a later LB step.
	if got := locationsOn(r, 1); got == 0 {
		t.Fatal("no chare ever rebalanced onto the restored PE")
	}
}

func TestRestoreSameCore(t *testing.T) {
	eng, r := elasticWorkload(t, nil, 40, 0)
	r.Start()
	eng.At(0.2, func() { r.RevokePE(3, 0) })
	eng.At(0.5, func() { r.RestorePE(3, -1) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	if !r.Machine().Core(3).Online() {
		t.Fatal("core 3 offline after same-core restore")
	}
	if r.Retired(3) {
		t.Fatal("PE 3 still retired")
	}
	// Under NoLB nothing ever moves back: the restored core stays idle.
	if got := locationsOn(r, 3); got != 0 {
		t.Fatalf("%d chares on the restored PE under NoLB", got)
	}
}

func TestRefineLBRecoversFasterThanNoLB(t *testing.T) {
	run := func(strat core.Strategy) sim.Time {
		eng, r := elasticWorkload(t, strat, 60, 10)
		r.Start()
		eng.At(0.3, func() { r.RevokePE(1, 0.1) })
		eng.At(0.9, func() { r.RestorePE(1, 4) })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !r.Finished() {
			t.Fatal("run did not finish")
		}
		return r.FinishTime()
	}
	ftNo := run(nil)
	ftRef := run(&core.RefineLB{})
	if ftRef >= ftNo {
		t.Fatalf("RefineLB (%v) not faster than NoLB (%v) across a revocation", ftRef, ftNo)
	}
}

func TestRevocationScenarioDeterministic(t *testing.T) {
	run := func() (sim.Time, int, int) {
		eng, r := elasticWorkload(t, &core.RefineLB{}, 60, 10)
		r.Start()
		eng.At(0.3, func() { r.RevokePE(1, 0.1) })
		eng.At(0.9, func() { r.RestorePE(1, 4) })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return r.FinishTime(), r.Evacuations(), r.Migrations()
	}
	ft1, ev1, mg1 := run()
	ft2, ev2, mg2 := run()
	if ft1 != ft2 || ev1 != ev2 || mg1 != mg2 {
		t.Fatalf("nondeterministic revocation scenario: (%v,%d,%d) vs (%v,%d,%d)",
			ft1, ev1, mg1, ft2, ev2, mg2)
	}
}

func TestHardKillWithStrategyCompletes(t *testing.T) {
	// Frequent syncs make it likely the detection delay overlaps a stats
	// gather; the stranded PE must report itself so the step can finish.
	eng, r := elasticWorkload(t, &core.RefineLB{}, 30, 2)
	r.Start()
	eng.At(0.123, func() { r.RevokePE(2, 0) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run stalled after a hard kill during LB activity")
	}
	if r.Evacuations() == 0 {
		t.Fatal("no evacuations recorded")
	}
}

func TestRevokePanicsUnderHierarchicalLB(t *testing.T) {
	_, r := elasticWorkload(t, &core.RefineLB{}, 10, 5)
	r.cfg.HierarchicalLB = true
	defer func() {
		if recover() == nil {
			t.Fatal("RevokePE with HierarchicalLB did not panic")
		}
	}()
	r.RevokePE(1, 0)
}
