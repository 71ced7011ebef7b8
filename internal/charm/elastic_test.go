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
		Kernels:  testKernels(t),
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

// ghost is haloChare's halo message: the sender's iteration.
type ghost struct{ iter int }

// haloChare is a 1D stencil on a ring of n chares: each iteration sends a
// ghost to both neighbours and computes once both of theirs for the same
// iteration have arrived, calling AtSync every syncEvery iterations.
// Neighbours stay within one iteration of each other, so a chare that
// stops running stalls the whole ring within a few iterations. A step's
// sends are its deferred tail.
type haloChare struct {
	idx, n, iters, syncEvery int
	cost                     float64

	iter int
	got  [2]int // ghosts received for iter and iter+1
}

func (c *haloChare) PackSize() int { return 4096 }

func (c *haloChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case Start, Resume:
		c.sendGhosts(ctx)
		return 0
	case ghost:
		c.got[m.iter-c.iter]++
		if c.got[0] < 2 {
			return 0
		}
		c.iter++
		c.got = [2]int{c.got[1], 0}
		switch {
		case c.iter == c.iters:
			ctx.Done()
		case c.iter%c.syncEvery == 0:
			ctx.AtSync()
		default:
			ctx.Defer(c.sendGhosts)
		}
		return c.cost
	}
	panic("haloChare: unexpected message")
}

func (c *haloChare) sendGhosts(ctx *Ctx) {
	for _, j := range []int{(c.idx + c.n - 1) % c.n, (c.idx + 1) % c.n} {
		ctx.Send(ChareID{Array: "w", Index: j}, ghost{c.iter}, 256)
	}
}

// haloWorkload installs a 16-chare ring on 4 PEs (block placement puts
// four on each) under RefineLB, with the given fault detection delay, and
// returns the runtime.
func haloWorkload(t *testing.T, detect sim.Duration) (*sim.Engine, *RTS) {
	t.Helper()
	eng, m, n := testWorld(1, 6)
	r := NewRTS(Config{
		Machine: m, Net: n, Cores: []int{0, 1, 2, 3},
		Strategy: &core.RefineLB{}, Kernels: testKernels(t),
	})
	r.detectDelay = detect
	r.NewArray("w", 16, func(i int) Chare {
		return &haloChare{idx: i, n: 16, iters: 60, syncEvery: 10, cost: 0.01}
	})
	watchInvariants(t, r)
	return eng, r
}

func TestHardKillWithStrategyCompletes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload func(*testing.T) (*sim.Engine, *RTS)
		at       sim.Time // when PE 2 is hard-killed
	}{
		// Frequent syncs make it likely the detection delay overlaps a
		// stats gather; the stranded PE must report itself so the step
		// can finish.
		{"self-ticking", func(t *testing.T) (*sim.Engine, *RTS) {
			return elasticWorkload(t, &core.RefineLB{}, 30, 2)
		}, 0.123},
		// An evacuee that has not synced must not land on a PE in sync:
		// it would run nothing there, and its neighbours on the other PEs
		// would wait for its ghosts and never reach their own sync point.
		// Here the kill is detected mid-gather, with PE 0 in sync and
		// PEs 1 and 3 stalled on the dead PE's ghosts.
		{"halo-detected-mid-gather", func(t *testing.T) (*sim.Engine, *RTS) {
			return haloWorkload(t, 0.2)
		}, 0.25},
		// Here no PE is in sync at detection, but PEs 0 and 3 would reach
		// their sync point while the evacuees are still in flight to them.
		{"halo-sync-while-evacuees-travel", func(t *testing.T) (*sim.Engine, *RTS) {
			return haloWorkload(t, 0.05)
		}, 0.345},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, r := tc.workload(t)
			r.Start()
			eng.At(tc.at, func() { r.RevokePE(2, 0) })
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !r.Finished() {
				t.Fatal("run stalled after a hard kill during LB activity")
			}
			if r.Evacuations() == 0 {
				t.Fatal("no evacuations recorded")
			}
		})
	}
}

// TestRestoreBeforeDetectionRearmsPE revokes a halo-ring PE without
// warning and restores it in the same event, before the kill is
// detected, so its chares and queue never leave. The restore must pump
// the PE and re-check its sync point: at these instants the entry the
// revocation forced complete is often the PE's last AtSync.
func TestRestoreBeforeDetectionRearmsPE(t *testing.T) {
	for pe := 0; pe < 4; pe++ {
		for _, at := range []sim.Time{0.361, 0.37, 0.38, 0.39, 0.391, 0.395, 0.4} {
			eng, r := haloWorkload(t, 0.05)
			r.Start()
			eng.At(at, func() {
				r.RevokePE(pe, 0)
				r.RestorePE(pe, -1)
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !r.Finished() {
				t.Errorf("PE %d revoked and restored at %v: the run stalled", pe, at)
			}
			if r.Evacuations() != 0 {
				t.Errorf("PE %d revoked and restored at %v: %d evacuations, want 0", pe, at, r.Evacuations())
			}
		}
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
