package machine

import (
	"math"
	"math/rand"
	"testing"

	"cloudlb/internal/sim"
)

const tol = 1e-6

func approx(a, b sim.Time) bool { return math.Abs(float64(a-b)) < tol }

func newTestMachine(nodes, cores int) (*sim.Engine, *Machine) {
	eng := sim.NewEngine()
	m := New(eng, Config{Nodes: nodes, CoresPerNode: cores, CoreSpeed: 1.0})
	return eng, m
}

func TestShape(t *testing.T) {
	_, m := newTestMachine(8, 4)
	if m.NumNodes() != 8 || m.NumCores() != 32 {
		t.Fatalf("shape %d nodes %d cores, want 8/32", m.NumNodes(), m.NumCores())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(3) != 0 || m.NodeOf(4) != 1 || m.NodeOf(31) != 7 {
		t.Fatal("NodeOf mapping wrong")
	}
	for i := 0; i < 32; i++ {
		if m.Core(i).ID != i {
			t.Fatalf("core %d has ID %d", i, m.Core(i).ID)
		}
		if m.Core(i).Node().ID != i/4 {
			t.Fatalf("core %d on node %d", i, m.Core(i).Node().ID)
		}
	}
	if len(m.Node(2).Cores()) != 4 {
		t.Fatal("node does not expose its 4 cores")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []Config{
		{Nodes: 0, CoresPerNode: 4, CoreSpeed: 1},
		{Nodes: 1, CoresPerNode: 0, CoreSpeed: 1},
		{Nodes: 1, CoresPerNode: 1, CoreSpeed: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			New(sim.NewEngine(), cfg)
		}()
	}
}

func TestSoloBurstTiming(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	var done sim.Time = -1
	th.Run(3.5, func() { done = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(done, 3.5) {
		t.Fatalf("solo 3.5s burst finished at %v", done)
	}
	if !approx(th.CPUTime(), 3.5) {
		t.Fatalf("cpu time %v, want 3.5", th.CPUTime())
	}
}

// TestSubResolutionRemainderCompletes: a 2 µs burst started at t = 64 s
// is served to within about 5e-15 s at its first completion event. That
// remainder is above the served slack, yet adding it to the clock leaves
// the clock unchanged, so the burst must complete there instead of
// re-arming at the same instant forever.
func TestSubResolutionRemainderCompletes(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	var done sim.Time = -1
	eng.At(64, func() { th.Run(2e-6, func() { done = eng.Now() }) })
	eng.SetEventLimit(100)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(done, 64+2e-6) {
		t.Fatalf("2 µs burst from t=64 finished at %v", done)
	}
}

func TestEqualSharing(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	a := m.NewThread("a", m.Core(0), 1)
	b := m.NewThread("b", m.Core(0), 1)
	var da, db sim.Time
	a.Run(1, func() { da = eng.Now() })
	b.Run(1, func() { db = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(da, 2) || !approx(db, 2) {
		t.Fatalf("equal 1s bursts finished at %v and %v, want 2", da, db)
	}
}

func TestWeightedSharing(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	a := m.NewThread("a", m.Core(0), 2)
	b := m.NewThread("b", m.Core(0), 1)
	var da, db sim.Time
	a.Run(1, func() { da = eng.Now() })
	b.Run(1, func() { db = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// a: rate 2/3 -> done at 1.5; b then has 0.5 left at rate 1 -> done at 2.
	if !approx(da, 1.5) {
		t.Fatalf("weighted thread finished at %v, want 1.5", da)
	}
	if !approx(db, 2) {
		t.Fatalf("light thread finished at %v, want 2", db)
	}
}

func TestLateArrivalSlowsInFlightBurst(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	a := m.NewThread("a", m.Core(0), 1)
	b := m.NewThread("b", m.Core(0), 1)
	var da, db sim.Time
	a.Run(2, func() { da = eng.Now() })
	eng.At(1, func() { b.Run(2, func() { db = eng.Now() }) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// a runs alone [0,1] (1s served), then shares: 1 left at 1/2 rate -> 3.
	// b: at t=3 has served 1, then alone: 1 left -> 4.
	if !approx(da, 3) || !approx(db, 4) {
		t.Fatalf("da=%v db=%v, want 3 and 4", da, db)
	}
}

func TestCoreSpeedScalesService(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	m.Core(0).SetSpeed(2)
	th := m.NewThread("a", m.Core(0), 1)
	var done sim.Time
	th.Run(4, func() { done = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(done, 2) {
		t.Fatalf("4 cpu-s at speed 2 finished at %v, want 2", done)
	}
}

func TestSetSpeedMidBurst(t *testing.T) {
	// A 4 cpu-s burst runs 1 wall-second at speed 1 (3 left), then the
	// core drops to speed 0.5: the remainder takes 6 more seconds.
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	var done sim.Time
	th.Run(4, func() { done = eng.Now() })
	eng.At(1, func() { m.Core(0).SetSpeed(0.5) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(done, 7) {
		t.Fatalf("burst finished at %v, want 7 (speed change mid-burst)", done)
	}
}

func TestProcStatBusyIdle(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	th.Run(2, func() {})
	if err := eng.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	busy, idle := m.Core(0).ProcStat()
	if !approx(busy, 2) || !approx(idle, 3) {
		t.Fatalf("busy=%v idle=%v, want 2/3", busy, idle)
	}
}

func TestProcStatIdleWhileThreadSleeps(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	// 1s burst, 1s sleep, 1s burst.
	th.Run(1, func() {
		eng.After(1, func() { th.Run(1, func() {}) })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	busy, idle := m.Core(0).ProcStat()
	if !approx(busy, 2) || !approx(idle, 1) {
		t.Fatalf("busy=%v idle=%v, want 2/1", busy, idle)
	}
}

func TestZeroDemandCompletesAtCurrentInstant(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	var done sim.Time = -1
	eng.At(1, func() { th.Run(0, func() { done = eng.Now() }) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("zero burst done at %v, want 1", done)
	}
	busy, _ := m.Core(0).ProcStat()
	if busy != 0 {
		t.Fatalf("zero burst accrued busy time %v", busy)
	}
}

func TestDoubleRunPanics(t *testing.T) {
	_, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	th.Run(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run on running thread did not panic")
		}
	}()
	th.Run(1, nil)
}

func TestAbortReturnsRemaining(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	fired := false
	th.Run(3, func() { fired = true })
	var rem float64
	eng.At(1, func() { rem = th.Abort() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("aborted burst fired its callback")
	}
	if math.Abs(rem-2) > tol {
		t.Fatalf("abort returned %v remaining, want 2", rem)
	}
	if th.Running() {
		t.Fatal("thread still running after abort")
	}
}

func TestAbortIdleReturnsZero(t *testing.T) {
	_, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	if rem := th.Abort(); rem != 0 {
		t.Fatalf("abort of idle thread returned %v", rem)
	}
}

func TestAbortZeroDemandDoesNotFireStaleCompletion(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	fired := 0
	th.Run(0, func() { fired++ })
	th.Abort()
	var done sim.Time
	th.Run(1, func() { fired++; done = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired=%d, want only the second burst's callback", fired)
	}
	if !approx(done, 1) {
		t.Fatalf("second burst done at %v, want 1", done)
	}
}

func TestMigrateMovesSleepingThread(t *testing.T) {
	eng, m := newTestMachine(1, 2)
	th := m.NewThread("a", m.Core(0), 1)
	hog := m.NewThread("hog", m.Core(0), 1)
	hog.Run(100, nil)
	th.Migrate(m.Core(1))
	var done sim.Time
	th.Run(1, func() { done = eng.Now() })
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if !approx(done, 1) {
		t.Fatalf("migrated thread shared with hog: done at %v, want 1", done)
	}
	if th.Core() != m.Core(1) {
		t.Fatal("Core() does not report destination")
	}
}

func TestMigrateRunningPanics(t *testing.T) {
	_, m := newTestMachine(1, 2)
	th := m.NewThread("a", m.Core(0), 1)
	th.Run(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("migrating a running thread did not panic")
		}
	}()
	th.Migrate(m.Core(1))
}

func TestCPUConservation(t *testing.T) {
	// Property: for random workloads on one core, total CPU delivered to
	// threads equals busy wall time times speed, and busy+idle equals
	// elapsed time.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		eng := sim.NewEngine()
		speed := 0.5 + rng.Float64()*2
		m := New(eng, Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: speed})
		core := m.Core(0)
		n := 1 + rng.Intn(5)
		threads := make([]*Thread, n)
		for i := range threads {
			threads[i] = m.NewThread("t", core, 0.5+rng.Float64()*3)
			var loop func()
			cnt := 0
			th := threads[i]
			loop = func() {
				cnt++
				if cnt > 20 {
					return
				}
				d := rng.Float64() * 2
				sleep := rng.Float64()
				th.Run(d, func() { eng.After(sim.Time(sleep), loop) })
			}
			loop()
		}
		if err := eng.RunUntil(100); err != nil {
			t.Fatal(err)
		}
		busy, idle := core.ProcStat()
		if !approx(busy+idle, eng.Now()) {
			t.Fatalf("trial %d: busy %v + idle %v != now %v", trial, busy, idle, eng.Now())
		}
		var cpu sim.Time
		for _, th := range threads {
			cpu += th.CPUTime()
		}
		if math.Abs(float64(cpu)-float64(busy)*speed) > 1e-6*float64(1+cpu) {
			t.Fatalf("trial %d: delivered %v cpu over %v busy at speed %v", trial, cpu, busy, speed)
		}
	}
}

func TestTwoCoresAreIndependent(t *testing.T) {
	eng, m := newTestMachine(1, 2)
	a := m.NewThread("a", m.Core(0), 1)
	b := m.NewThread("b", m.Core(1), 1)
	var da, db sim.Time
	a.Run(1, func() { da = eng.Now() })
	b.Run(1, func() { db = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(da, 1) || !approx(db, 1) {
		t.Fatalf("independent cores interfered: %v %v", da, db)
	}
}

func TestBurstCompletionChaining(t *testing.T) {
	// A completion callback that immediately starts the next burst must
	// keep the core continuously busy.
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	n := 0
	var loop func()
	loop = func() {
		n++
		if n < 10 {
			th.Run(0.5, loop)
		}
	}
	th.Run(0.5, loop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("chained %d bursts, want 10", n)
	}
	busy, idle := m.Core(0).ProcStat()
	if !approx(busy, 5) || !approx(idle, 0) {
		t.Fatalf("busy=%v idle=%v, want 5/0", busy, idle)
	}
}

func TestSimultaneousCompletions(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	a := m.NewThread("a", m.Core(0), 1)
	b := m.NewThread("b", m.Core(0), 1)
	done := 0
	a.Run(1, func() { done++ })
	b.Run(1, func() { done++ })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("only %d of 2 simultaneous completions fired", done)
	}
	if !approx(eng.Now(), 2) {
		t.Fatalf("finished at %v, want 2", eng.Now())
	}
}

func BenchmarkContendedCore(b *testing.B) {
	eng, m := newTestMachine(1, 1)
	core := m.Core(0)
	const nThreads = 8
	left := b.N
	for i := 0; i < nThreads; i++ {
		th := m.NewThread("t", core, 1)
		var loop func()
		loop = func() {
			if left <= 0 {
				return
			}
			left--
			th.Run(0.01, loop)
		}
		loop()
	}
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
