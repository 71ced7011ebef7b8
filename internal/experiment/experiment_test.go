package experiment

import (
	"context"
	"math"
	"testing"

	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// quickScale keeps tests fast; scaleIters clamps at 2*syncEvery=20 iters.
const quickScale = 0.1

func TestRunBaseScenario(t *testing.T) {
	r := Run(Scenario{App: Wave2D, Cores: 4, Strategy: NoLB, BG: BGNone, Seed: 1, Scale: quickScale})
	if math.IsNaN(r.AppWall) || r.AppWall <= 0 {
		t.Fatalf("bad wall %v", r.AppWall)
	}
	if !math.IsNaN(r.BGWall) {
		t.Fatal("BGWall set without a background job")
	}
	if r.EnergyJ <= 0 || r.AvgPowerW <= 40 {
		t.Fatalf("bad energy %v / power %v", r.EnergyJ, r.AvgPowerW)
	}
	if r.Migrations != 0 || r.LBSteps != 0 {
		t.Fatal("noLB run performed LB work")
	}
}

// resultsEqual compares every field of two Results, treating the NaN wall
// of an absent application or background job as equal to itself: plain ==
// reports a difference whenever a wall is NaN.
func resultsEqual(a, b Result) bool {
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if !feq(a.AppWall, b.AppWall) || !feq(a.BGWall, b.BGWall) {
		return false
	}
	a.AppWall, a.BGWall, b.AppWall, b.BGWall = 0, 0, 0, 0
	return a == b
}

func TestRunDeterministic(t *testing.T) {
	s := Scenario{App: Jacobi2D, Cores: 4, Strategy: Refine, BG: BGWave2D, Seed: 3, Scale: quickScale}
	a := Run(s)
	b := Run(s)
	if a != b {
		t.Fatalf("same scenario differed:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	s := Scenario{App: Jacobi2D, Cores: 4, Strategy: NoLB, BG: BGWave2D, Seed: 1, Scale: quickScale}
	a := Run(s)
	s.Seed = 2
	b := Run(s)
	if a.AppWall == b.AppWall {
		t.Fatal("seed had no effect on measurements")
	}
}

func TestHeadlineResultWave2D(t *testing.T) {
	// The paper's core claim in miniature: RefineLB cuts the interference
	// penalty substantially.
	base := Run(Scenario{App: Wave2D, Cores: 4, Strategy: NoLB, BG: BGNone, Seed: 1, Scale: 0.25})
	no := Run(Scenario{App: Wave2D, Cores: 4, Strategy: NoLB, BG: BGWave2D, Seed: 1, Scale: 0.25})
	lb := Run(Scenario{App: Wave2D, Cores: 4, Strategy: Refine, BG: BGWave2D, Seed: 1, Scale: 0.25})
	penNo := (no.AppWall - base.AppWall) / base.AppWall
	penLB := (lb.AppWall - base.AppWall) / base.AppWall
	t.Logf("base=%.2f noLB=%.2f (%.0f%%) LB=%.2f (%.0f%%) migrations=%d",
		base.AppWall, no.AppWall, penNo*100, lb.AppWall, penLB*100, lb.Migrations)
	if penNo < 0.4 {
		t.Fatalf("interference too weak: noLB penalty %v", penNo)
	}
	if penLB > 0.75*penNo {
		t.Fatalf("LB penalty %v not well below noLB %v", penLB, penNo)
	}
	if lb.Migrations == 0 {
		t.Fatal("RefineLB never migrated")
	}
}

func TestLBRaisesPowerLowersEnergy(t *testing.T) {
	no := Run(Scenario{App: Wave2D, Cores: 4, Strategy: NoLB, BG: BGWave2D, Seed: 1, Scale: 0.25})
	lb := Run(Scenario{App: Wave2D, Cores: 4, Strategy: Refine, BG: BGWave2D, Seed: 1, Scale: 0.25})
	if lb.AvgPowerW <= no.AvgPowerW {
		t.Fatalf("LB power %v not above noLB %v (idle removal raises draw)", lb.AvgPowerW, no.AvgPowerW)
	}
	if lb.EnergyJ >= no.EnergyJ {
		t.Fatalf("LB energy %v not below noLB %v", lb.EnergyJ, no.EnergyJ)
	}
}

func TestRunValidatesScenario(t *testing.T) {
	bad := []Scenario{
		{App: Wave2D, Cores: 3},              // not a multiple of 4
		{App: Wave2D, Cores: -4},             // nonsense allocation
		{App: AppNone, Cores: 4, BG: BGNone}, // nothing to run
	}
	for i, s := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			Run(s)
		}()
	}
}

func TestEvaluateShape(t *testing.T) {
	evals, err := Spec{App: Wave2D, Cores: []int{4, 8}, Seeds: []int64{1}, Scale: quickScale}.
		Evaluate(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 2 {
		t.Fatalf("%d rows, want 2", len(evals))
	}
	for _, e := range evals {
		if e.App != Wave2D {
			t.Fatal("wrong app")
		}
		if math.IsNaN(e.PenAppNoLB) || math.IsNaN(e.PenAppLB) || math.IsNaN(e.PenBGNoLB) {
			t.Fatalf("NaN penalties: %+v", e)
		}
		if e.PenAppLB >= e.PenAppNoLB {
			t.Fatalf("LB penalty %v not below noLB %v at %d cores", e.PenAppLB, e.PenAppNoLB, e.Cores)
		}
		if e.PowerLB <= e.PowerNoLB {
			t.Fatalf("LB power not above noLB at %d cores", e.Cores)
		}
	}
	tab := Fig2Table(Wave2D, evals)
	if tab.NumRows() != 2 {
		t.Fatal("Fig2 table rows")
	}
	tab4 := Fig4Table(Wave2D, evals)
	if tab4.NumRows() != 2 {
		t.Fatal("Fig4 table rows")
	}
}

func TestFig1TimelineShowsInterference(t *testing.T) {
	s, res, err := Fig1(context.Background(), Options{}, Spec{Scale: quickScale})
	if err != nil {
		t.Fatal(err)
	}
	hogStart, finish := s.Hogs[0].Start, sim.Time(res.AppWall)
	if finish <= hogStart {
		t.Fatal("hog started after the run ended")
	}
	rec := s.Trace
	// Before the hog: no background activity on core 3. After: plenty.
	before := rec.BusyFraction(3, trace.KindBackground, 0, hogStart)
	after := rec.BusyFraction(3, trace.KindBackground, hogStart, finish)
	if before != 0 {
		t.Fatalf("background activity %v before the hog started", before)
	}
	if after < 0.2 {
		t.Fatalf("background fraction %v after hog start, want substantial", after)
	}
	// Tasks run on every core.
	for c := 0; c < 4; c++ {
		if rec.BusyFraction(c, trace.KindTask, 0, finish) < 0.2 {
			t.Fatalf("core %d shows no application activity", c)
		}
	}
}

// distinctChares counts how many different chares executed entries on a
// core within a window. Wall-time fractions cannot show shedding (the
// remaining entries inflate to fill the core), but residency can.
func distinctChares(rec *trace.Recorder, core int, from, to sim.Time) int {
	labels := map[string]bool{}
	for _, s := range rec.CoreSegments(core) {
		if s.Kind == trace.KindTask && s.End > from && s.Start < to {
			labels[s.Label] = true
		}
	}
	return len(labels)
}

func TestFig3AdaptsToMovingInterference(t *testing.T) {
	s, res, err := Fig3(context.Background(), Options{}, Spec{Scale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations despite dynamic interference")
	}
	rec := s.Trace
	hog1Start, hog1Stop := s.Hogs[0].Start, s.Hogs[0].Stop
	hog2Start, hog2Stop := s.Hogs[1].Start, s.Hogs[1].Stop
	// Before any interference, core 1 hosts its initial share (~32).
	initial := distinctChares(rec, 1, 0, hog1Start)
	if initial < 16 {
		t.Fatalf("core 1 started with only %d chares", initial)
	}
	// While the core-1 hog is active and the balancer has reacted, core 1
	// hosts clearly fewer chares. The equilibrium is not empty: with a
	// hog taking ~half the core, physical balance keeps roughly
	// initial*2/3 ... initial/2 of the work there (the paper's Fig. 3
	// likewise migrates some, not all, tasks).
	lateHog1 := hog1Stop - (hog1Stop-hog1Start)/4
	shed := distinctChares(rec, 1, lateHog1, hog1Stop)
	if shed > initial*3/4 {
		t.Fatalf("balancer did not shed core 1: %d -> %d chares", initial, shed)
	}
	// After hog 1 stops and before hog 2 starts, core 1 regains work.
	quietFrom := hog1Stop + (hog2Start-hog1Stop)/2
	recovered := distinctChares(rec, 1, quietFrom, hog2Start)
	if recovered <= shed {
		t.Fatalf("core 1 did not regain work after interference ended: %d -> %d chares", shed, recovered)
	}
	// While the core-3 hog is active and the balancer has reacted, core 3
	// sheds as well.
	lateHog2 := hog2Stop - (hog2Stop-hog2Start)/4
	shed3 := distinctChares(rec, 3, lateHog2, hog2Stop)
	quiet0 := distinctChares(rec, 0, lateHog2, hog2Stop)
	if shed3 >= quiet0 {
		t.Fatalf("balancer did not shed core 3: %d chares vs %d on quiet core", shed3, quiet0)
	}
}

func TestCloudChurnExtension(t *testing.T) {
	// The paper's future-work setting: tenant VMs churn across all app
	// cores. RefineLB must still beat noLB.
	base := Run(Scenario{App: Wave2D, Cores: 8, Strategy: NoLB, BG: BGNone, Seed: 1, Scale: 0.5})
	no := Run(Scenario{App: Wave2D, Cores: 8, Strategy: NoLB, BG: BGCloudChurn, Seed: 1, Scale: 0.5})
	lbr := Run(Scenario{App: Wave2D, Cores: 8, Strategy: Refine, BG: BGCloudChurn, Seed: 1, Scale: 0.5})
	penNo := (no.AppWall - base.AppWall) / base.AppWall
	penLB := (lbr.AppWall - base.AppWall) / base.AppWall
	t.Logf("churn: base=%.2f noLB=%.2f (%.0f%%) LB=%.2f (%.0f%%) migrations=%d",
		base.AppWall, no.AppWall, penNo*100, lbr.AppWall, penLB*100, lbr.Migrations)
	if penNo <= 0 {
		t.Fatal("churn produced no interference")
	}
	if penLB >= penNo {
		t.Fatalf("LB (%.0f%%) did not improve on noLB (%.0f%%) under churn", penLB*100, penNo*100)
	}
	if lbr.Migrations == 0 {
		t.Fatal("no migrations under churn")
	}
}

func TestKitchenSinkDeterministic(t *testing.T) {
	// Every complex feature at once — the irregular MD application,
	// multi-tenant churn, the hierarchical LB protocol and the
	// swap-extended balancer — must still be exactly reproducible and
	// must still beat noLB.
	s := Scenario{
		App: Mol3D, Cores: 8, Strategy: RefineSwap, BG: BGCloudChurn,
		Seed: 5, Scale: 0.4, Hierarchical: true,
	}
	a := Run(s)
	b := Run(s)
	if !resultsEqual(a, b) {
		t.Fatalf("kitchen-sink scenario not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Migrations == 0 {
		t.Fatal("no migrations in the kitchen-sink scenario")
	}
	s.Strategy = NoLB
	s.Hierarchical = false
	no := Run(s)
	t.Logf("kitchen sink: LB=%.2fs (%d migrations) noLB=%.2fs", a.AppWall, a.Migrations, no.AppWall)
	// At this short scale the win over noLB depends on when the random
	// tenants land (TestCloudChurnExtension covers the benefit at proper
	// scale); here just require the balancer not to hurt materially.
	if a.AppWall > 1.15*no.AppWall {
		t.Fatalf("LB (%v) much slower than noLB (%v)", a.AppWall, no.AppWall)
	}
}

func TestSweepRefineParams(t *testing.T) {
	points, err := Spec{App: Wave2D, Cores: []int{4}, Seeds: []int64{1}, Scale: 0.5,
		EpsFracs: []float64{0.02, 0.2}, Periods: []int{10, 40}}.
		SweepRefineParams(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points, want 4", len(points))
	}
	byKey := map[[2]float64]SweepPoint{}
	for _, p := range points {
		if p.Migrations < 0 || p.LBSteps <= 0 {
			t.Fatalf("bad point %+v", p)
		}
		byKey[[2]float64{p.EpsilonFrac, float64(p.SyncEvery)}] = p
	}
	// A short period reacts faster than a long one at the same epsilon.
	fast := byKey[[2]float64{0.02, 10}]
	slow := byKey[[2]float64{0.02, 40}]
	if fast.PenaltyPct >= slow.PenaltyPct {
		t.Fatalf("period 10 penalty %.1f%% not below period 40 %.1f%%", fast.PenaltyPct, slow.PenaltyPct)
	}
	// A huge epsilon tolerates the imbalance and migrates less.
	loose := byKey[[2]float64{0.2, 10}]
	if loose.Migrations > fast.Migrations {
		t.Fatalf("eps 0.2 migrated more (%d) than eps 0.02 (%d)", loose.Migrations, fast.Migrations)
	}
	if tab := SweepTable(points); tab.NumRows() != 4 {
		t.Fatal("sweep table rows")
	}
}

func TestScaleItersClamps(t *testing.T) {
	if scaleIters(200, 0.01) != 2*syncEvery {
		t.Fatal("scaleIters did not clamp to two LB periods")
	}
	if scaleIters(200, 1) != 200 {
		t.Fatal("scaleIters changed full scale")
	}
}

func TestGridShapeFactors(t *testing.T) {
	for _, n := range []int{128, 256, 512, 1024} {
		w, h := gridShape(n)
		if w*h != n || w < h {
			t.Fatalf("gridShape(%d) = %dx%d", n, w, h)
		}
	}
}

func TestStrategyKindsBuild(t *testing.T) {
	for _, k := range []StrategyKind{NoLB, Refine, RefineInternal, RefineSwap, Greedy, Threshold, CostAware, Diffusion} {
		if k != NoLB && buildStrategy(k, 0, xnet.DefaultConfig().InterNodeBandwidth, 0, 0) == nil {
			t.Fatalf("strategy %v built nil", k)
		}
		if k.String() == "unknown" {
			t.Fatalf("strategy %v has no name", k)
		}
	}
	for _, a := range []AppKind{AppNone, Jacobi2D, Wave2D, Mol3D} {
		if a.String() == "unknown" {
			t.Fatalf("app %v has no name", a)
		}
	}
}
