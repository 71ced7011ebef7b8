package charm

import (
	"math"
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// testWorld builds a machine + network for nodes*coresPerNode cores.
func testWorld(nodes, coresPerNode int) (*sim.Engine, *machine.Machine, *xnet.Network) {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.Config{Nodes: nodes, CoresPerNode: coresPerNode, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	return eng, m, n
}

func allCores(m *machine.Machine) []int {
	cores := make([]int, m.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// runToFinish drives the engine until the runtime finishes or the deadline
// passes. Needed whenever a perpetual background hog keeps the event queue
// nonempty, which makes Engine.Run never return.
func runToFinish(t *testing.T, eng *sim.Engine, r *RTS, deadline sim.Time) {
	t.Helper()
	for !r.Finished() && eng.Now() < deadline {
		if err := eng.RunUntil(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Finished() {
		t.Fatalf("run did not finish by t=%v", deadline)
	}
}

// tick drives iterChare's self-message loop.
type tick struct{}

// iterChare computes `iters` iterations of `cost` CPU-seconds each,
// calling AtSync every syncEvery iterations (0 = never).
type iterChare struct {
	iters     int
	cost      float64
	syncEvery int

	self    ChareID
	done    int
	lastPE  int
	peTrail []int
}

func (c *iterChare) PackSize() int { return 4096 }

func (c *iterChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch data.(type) {
	case Start, Resume, tick:
		return c.step(ctx)
	case ReductionResult:
		return 0
	}
	panic("iterChare: unexpected message")
}

func (c *iterChare) step(ctx *Ctx) float64 {
	c.lastPE = ctx.PE()
	c.peTrail = append(c.peTrail, ctx.PE())
	if c.done >= c.iters {
		return 0
	}
	c.done++
	if c.done == c.iters {
		ctx.Done()
		return c.cost
	}
	if c.syncEvery > 0 && c.done%c.syncEvery == 0 {
		ctx.AtSync()
	} else {
		c.self = ctx.Self()
		ctx.Defer(c.sendTick)
	}
	return c.cost
}

// sendTick is a step's deferred tail: the next step's trigger.
func (c *iterChare) sendTick(ctx *Ctx) { ctx.Send(c.self, tick{}, 16) }

func TestSingleChareRuns(t *testing.T) {
	eng, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("w", 1, func(int) Chare { return &iterChare{iters: 10, cost: 0.1} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	// 10 iterations of 0.1 s plus small messaging overheads.
	ft := float64(r.FinishTime())
	if ft < 1.0 || ft > 1.05 {
		t.Fatalf("finish time %v, want ~1.0", ft)
	}
}

func TestChareDistributionBlock(t *testing.T) {
	_, m, n := testWorld(1, 4)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Placement: PlaceBlock})
	r.NewArray("w", 8, func(int) Chare { return &iterChare{iters: 1, cost: 0} })
	for i := 0; i < 8; i++ {
		want := i * 4 / 8
		if got := r.Location(ChareID{Array: "w", Index: i}); got != want {
			t.Fatalf("block placement of %d: PE %d, want %d", i, got, want)
		}
	}
}

func TestPESerializesEntries(t *testing.T) {
	// Two chares on one core, each 5 iterations of 0.1: total CPU is 1.0,
	// so the finish time must be ~1.0 (they cannot run concurrently).
	eng, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("w", 2, func(int) Chare { return &iterChare{iters: 5, cost: 0.1} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	ft := float64(r.FinishTime())
	if ft < 1.0 || ft > 1.05 {
		t.Fatalf("finish time %v, want ~1.0", ft)
	}
}

func TestParallelSpeedup(t *testing.T) {
	// 4 chares on 4 cores run 4x faster than on 1 core.
	run := func(cores int) float64 {
		eng, m, n := testWorld(1, cores)
		r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
		r.NewArray("w", 4, func(int) Chare { return &iterChare{iters: 10, cost: 0.05} })
		r.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(r.FinishTime())
	}
	t1, t4 := run(1), run(4)
	if speedup := t1 / t4; speedup < 3.5 {
		t.Fatalf("speedup %v on 4 cores, want ~4", speedup)
	}
}

func TestDoneCountsEveryChare(t *testing.T) {
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("a", 3, func(int) Chare { return &iterChare{iters: 2, cost: 0.01} })
	r.NewArray("b", 2, func(int) Chare { return &iterChare{iters: 5, cost: 0.01} })
	fired := false
	r.SetOnAllDone(func() { fired = true })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() || !fired {
		t.Fatal("finish not detected across two arrays")
	}
}

func TestFinishTimeBeforeDonePanics(t *testing.T) {
	_, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	defer func() {
		if recover() == nil {
			t.Fatal("FinishTime on unfinished run did not panic")
		}
	}()
	r.FinishTime()
}

// recordingStrategy captures the stats of each LB step without moving
// anything, optionally delegating to a wrapped plan function.
type recordingStrategy struct {
	steps []core.Stats
	plan  func(core.Stats) []core.Move
}

func (s *recordingStrategy) Name() string { return "recording" }
func (s *recordingStrategy) Plan(st core.Stats) []core.Move {
	cp := core.Stats{WallSinceLB: st.WallSinceLB}
	cp.Tasks = append(cp.Tasks, st.Tasks...)
	cp.Cores = append(cp.Cores, st.Cores...)
	s.steps = append(s.steps, cp)
	if s.plan != nil {
		return s.plan(st)
	}
	return nil
}

func TestNoLBShortCircuitsAtSync(t *testing.T) {
	// With a nil strategy, AtSync must not block on other chares: a
	// lone fast chare syncing every iteration finishes in compute time.
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("fast", 2, func(int) Chare { return &iterChare{iters: 10, cost: 0.01, syncEvery: 1} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	ft := float64(r.FinishTime())
	if ft > 0.15 {
		t.Fatalf("noLB AtSync cost too much: finish at %v, want ~0.1", ft)
	}
	if r.LBSteps() != 0 {
		t.Fatalf("noLB performed %d LB steps", r.LBSteps())
	}
}

func TestLBStepGathersAllPEs(t *testing.T) {
	eng, m, n := testWorld(1, 4)
	rec := &recordingStrategy{}
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: rec})
	r.NewArray("w", 8, func(int) Chare { return &iterChare{iters: 10, cost: 0.02, syncEvery: 5} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.steps) != 1 {
		t.Fatalf("%d LB steps recorded, want 1 (sync at iter 5; iter 10 is Done)", len(rec.steps))
	}
	st := rec.steps[0]
	if len(st.Cores) != 4 {
		t.Fatalf("stats cover %d cores, want 4", len(st.Cores))
	}
	if len(st.Tasks) != 8 {
		t.Fatalf("stats cover %d tasks, want 8", len(st.Tasks))
	}
	for _, task := range st.Tasks {
		// 5 iterations of 0.02 on an idle machine: wall ~ 0.1.
		if task.Load < 0.09 || task.Load > 0.13 {
			t.Fatalf("task %v load %v, want ~0.1", task.ID, task.Load)
		}
	}
	if r.LBSteps() != 1 {
		t.Fatalf("LBSteps=%d, want 1", r.LBSteps())
	}
}

func TestBackgroundLoadMeasurement(t *testing.T) {
	// A continuous hog shares PE 1's core. The paper's Eq. 2 arithmetic
	// must attribute the stolen CPU: the interfered core's total load
	// (tasks + background) approaches the full interval, while the quiet
	// core reports ~zero background.
	eng, m, n := testWorld(1, 2)
	hog := m.NewThread("hog", m.Core(1), 1)
	var hogLoop func()
	hogLoop = func() { hog.Run(0.5, hogLoop) }
	hogLoop()

	rec := &recordingStrategy{}
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: rec})
	r.NewArray("w", 2, func(int) Chare { return &iterChare{iters: 10, cost: 0.05, syncEvery: 5} })
	r.Start()
	runToFinish(t, eng, r, 100)
	if len(rec.steps) < 1 {
		t.Fatal("no LB step recorded")
	}
	st := rec.steps[0]
	loads, _ := core.CoreLoads(st)
	// PE0 background ~0.
	if st.Cores[0].Background > 0.02 {
		t.Fatalf("quiet core reports background %v", st.Cores[0].Background)
	}
	// PE1: tasks inflated to ~2x plus background during waits; total
	// should be close to the whole interval (it is the bottleneck).
	if loads[1] < loads[0] {
		t.Fatalf("interfered core load %v below quiet core %v", loads[1], loads[0])
	}
	tlb := st.WallSinceLB
	if loads[1] < 0.8*tlb {
		t.Fatalf("interfered core load %v, want close to interval %v", loads[1], tlb)
	}
}

// moveOnce moves chare w[0] to PE `to` at the first LB step.
type moveOnce struct {
	to    int
	moved bool
}

func (s *moveOnce) Name() string { return "moveOnce" }
func (s *moveOnce) Plan(st core.Stats) []core.Move {
	if s.moved {
		return nil
	}
	s.moved = true
	return []core.Move{{Task: core.TaskID{Array: "w", Index: 0}, To: s.to}}
}

func TestMigrationMovesExecution(t *testing.T) {
	eng, m, n := testWorld(1, 2)
	chares := map[int]*iterChare{}
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: &moveOnce{to: 1}})
	r.NewArray("w", 2, func(i int) Chare {
		c := &iterChare{iters: 10, cost: 0.01, syncEvery: 2}
		chares[i] = c
		return c
	})
	if r.Location(ChareID{Array: "w", Index: 0}) != 0 {
		t.Fatal("w[0] not initially on PE 0")
	}
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Location(ChareID{Array: "w", Index: 0}); got != 1 {
		t.Fatalf("w[0] on PE %d after migration, want 1", got)
	}
	if chares[0].lastPE != 1 {
		t.Fatalf("w[0] last executed on PE %d, want 1", chares[0].lastPE)
	}
	// Trail must show execution on PE 0 first, then PE 1.
	if chares[0].peTrail[0] != 0 {
		t.Fatal("w[0] did not start on PE 0")
	}
	if r.Migrations() != 1 {
		t.Fatalf("Migrations=%d, want 1", r.Migrations())
	}
	if !r.Finished() {
		t.Fatal("run did not finish after migration")
	}
}

func TestMigrationToEmptyPEAndBack(t *testing.T) {
	// Move the only chare of PE 0 away; the now-empty PE must still
	// participate in the next LB step (probe path) and can receive the
	// chare back.
	eng, m, n := testWorld(1, 2)
	step := 0
	strat := &recordingStrategy{plan: func(st core.Stats) []core.Move {
		step++
		switch step {
		case 1:
			return []core.Move{{Task: core.TaskID{Array: "w", Index: 0}, To: 1}}
		case 2:
			return []core.Move{{Task: core.TaskID{Array: "w", Index: 0}, To: 0}}
		}
		return nil
	}}
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: strat})
	r.NewArray("w", 2, func(i int) Chare { return &iterChare{iters: 12, cost: 0.01, syncEvery: 3} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("deadlocked with an empty PE in the LB step")
	}
	if step < 3 {
		t.Fatalf("only %d LB steps ran; empty-PE probe path untested", step)
	}
	if got := r.Location(ChareID{Array: "w", Index: 0}); got != 0 {
		t.Fatalf("w[0] final PE %d, want 0", got)
	}
	if r.Migrations() != 2 {
		t.Fatalf("Migrations=%d, want 2", r.Migrations())
	}
}

// reduceChare contributes its value and records results.
type reduceChare struct {
	value   float64
	results []float64
	iters   int
	done    int
}

func (c *reduceChare) PackSize() int { return 128 }
func (c *reduceChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch d := data.(type) {
	case Start:
		ctx.Contribute("sum", c.value, ReduceSum)
		return 0.001
	case ReductionResult:
		c.results = append(c.results, d.Value)
		c.done++
		if c.done >= c.iters {
			ctx.Done()
			return 0
		}
		ctx.Contribute("sum", c.value, ReduceSum)
		return 0.001
	}
	return 0
}

func TestReductionSum(t *testing.T) {
	eng, m, n := testWorld(2, 2)
	chares := map[int]*reduceChare{}
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("r", 8, func(i int) Chare {
		c := &reduceChare{value: float64(i), iters: 3}
		chares[i] = c
		return c
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("reduction rounds did not complete")
	}
	want := 0.0 + 1 + 2 + 3 + 4 + 5 + 6 + 7
	for i, c := range chares {
		if len(c.results) != 3 {
			t.Fatalf("chare %d saw %d results, want 3", i, len(c.results))
		}
		for _, v := range c.results {
			if math.Abs(v-want) > 1e-12 {
				t.Fatalf("chare %d got sum %v, want %v", i, v, want)
			}
		}
	}
}

func TestReduceOps(t *testing.T) {
	if ReduceSum.combine(2, 3) != 5 {
		t.Fatal("sum")
	}
	if ReduceMax.combine(2, 3) != 3 {
		t.Fatal("max")
	}
	if ReduceMin.combine(2, 3) != 2 {
		t.Fatal("min")
	}
	if ReduceMax.identity() != math.Inf(-1) || ReduceMin.identity() != math.Inf(1) || ReduceSum.identity() != 0 {
		t.Fatal("identities")
	}
}

func TestDuplicateArrayPanics(t *testing.T) {
	_, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("a", 1, func(int) Chare { return &iterChare{iters: 1} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate array did not panic")
		}
	}()
	r.NewArray("a", 1, func(int) Chare { return &iterChare{iters: 1} })
}

func TestArrayAfterStartPanics(t *testing.T) {
	_, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("a", 1, func(int) Chare { return &iterChare{iters: 1, cost: 0.01} })
	r.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray after Start did not panic")
		}
	}()
	r.NewArray("b", 1, func(int) Chare { return &iterChare{iters: 1} })
}

func TestEndToEndInterferenceMitigation(t *testing.T) {
	// The headline result in miniature: 32 chares on 4 cores, a
	// continuous hog on core 3. RefineLB must cut the timing penalty
	// well below the noLB run's.
	run := func(strategy core.Strategy, withHog bool) (float64, int) {
		eng, m, n := testWorld(1, 4)
		if withHog {
			hog := m.NewThread("hog", m.Core(3), 1)
			var loop func()
			loop = func() { hog.Run(0.5, loop) }
			loop()
		}
		r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: strategy})
		r.NewArray("w", 32, func(int) Chare { return &iterChare{iters: 60, cost: 0.01, syncEvery: 10} })
		r.Start()
		runToFinish(t, eng, r, 100)
		return float64(r.FinishTime()), r.Migrations()
	}

	base, _ := run(nil, false)
	noLB, _ := run(nil, true)
	lbTime, migrations := run(&core.RefineLB{EpsilonFrac: 0.05}, true)

	penNoLB := (noLB - base) / base * 100
	penLB := (lbTime - base) / base * 100
	t.Logf("base=%.3fs noLB=%.3fs (penalty %.1f%%) LB=%.3fs (penalty %.1f%%) migrations=%d",
		base, noLB, penNoLB, lbTime, penLB, migrations)

	if penNoLB < 50 {
		t.Fatalf("hog too weak: noLB penalty only %.1f%%", penNoLB)
	}
	if migrations == 0 {
		t.Fatal("RefineLB migrated nothing")
	}
	// The paper reports >=50% penalty reduction; require it here too.
	if penLB > 0.5*penNoLB {
		t.Fatalf("LB penalty %.1f%% not under half of noLB %.1f%%", penLB, penNoLB)
	}
}

func TestLBWallTimeAccrues(t *testing.T) {
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: &core.RefineLB{}})
	r.NewArray("w", 4, func(int) Chare { return &iterChare{iters: 10, cost: 0.01, syncEvery: 5} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.LBSteps() < 1 {
		t.Fatal("no LB steps")
	}
	if r.LBWallTime() <= 0 {
		t.Fatal("LB wall time not accounted")
	}
}

func TestUnknownChareSendPanics(t *testing.T) {
	eng, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("w", 1, func(int) Chare {
		return &logChare{log: new([]string), start: func(ctx *Ctx) float64 {
			ctx.Send(ChareID{Array: "ghost", Index: 0}, tick{}, 8)
			return 0
		}}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("send to unknown chare did not panic")
		}
	}()
	r.Start()
	_ = eng.Run()
}

func TestRTSOnSubsetOfCores(t *testing.T) {
	// Two runtimes share one machine on disjoint cores — the paper's
	// parallel job + background job setup.
	eng, m, n := testWorld(1, 4)
	rMain := NewRTS(Config{Machine: m, Net: n, Cores: []int{0, 1}, Name: "main"})
	rBG := NewRTS(Config{Machine: m, Net: n, Cores: []int{2, 3}, Name: "bg"})
	rMain.NewArray("w", 4, func(int) Chare { return &iterChare{iters: 10, cost: 0.05} })
	rBG.NewArray("w", 4, func(int) Chare { return &iterChare{iters: 10, cost: 0.05} })
	rMain.Start()
	rBG.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !rMain.Finished() || !rBG.Finished() {
		t.Fatal("co-scheduled runtimes did not finish")
	}
	// Disjoint cores: neither slows the other. Each runs 2 chares/PE
	// of 10x0.05 = 1.0s CPU per core.
	if ft := float64(rMain.FinishTime()); ft > 1.1 {
		t.Fatalf("main finished at %v, want ~1.0 (no interference)", ft)
	}
}
