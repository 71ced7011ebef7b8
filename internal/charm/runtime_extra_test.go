package charm

import (
	"math"
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// bcastChare: element 0 broadcasts on Start; everyone records receipt.
type bcastChare struct {
	n        int
	received *int
}

type bcastMsg struct{ Payload int }

func (c *bcastChare) PackSize() int { return 64 }
func (c *bcastChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case Start:
		if ctx.Self().Index == 0 {
			ctx.Broadcast("b", bcastMsg{Payload: 7}, 32)
		}
		return 0.001
	case bcastMsg:
		if m.Payload != 7 {
			panic("bad payload")
		}
		*c.received++
		if *c.received == c.n {
			ctx.Done()
		}
		return 0.001
	}
	return 0
}

func TestBroadcastReachesEveryElement(t *testing.T) {
	eng, m, n := testWorld(2, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	received := 0
	const elems = 9
	r.NewArray("b", elems, func(int) Chare { return &bcastChare{n: elems, received: &received} })
	// Only the broadcaster finishing matters; mark others done via count.
	r.Start()
	deadline := sim.Time(50)
	for received < elems && eng.Now() < deadline {
		if err := eng.RunUntil(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if received != elems {
		t.Fatalf("broadcast reached %d of %d elements", received, elems)
	}
}

func TestMigrationCostScalesWithObjectSize(t *testing.T) {
	// Two runs identical except for chare PackSize; the big-object run
	// must spend more wall time inside LB steps.
	run := func(packSize int) sim.Time {
		eng, m, n := testWorld(2, 2)
		r := NewRTS(Config{
			Machine: m, Net: n, Cores: allCores(m),
			Strategy: &moveOnce{to: 3},
		})
		r.NewArray("w", 4, func(i int) Chare {
			c := &iterChare{iters: 10, cost: 0.01, syncEvery: 5}
			_ = i
			return &sizedChare{iterChare: c, size: packSize}
		})
		r.Start()
		runToFinish(t, eng, r, 100)
		return r.LBWallTime()
	}
	small := run(1 << 10)
	big := run(64 << 20) // 64 MiB object over ~1 Gb/s: ~0.5 s transfer
	if big <= small {
		t.Fatalf("LB wall time did not grow with object size: %v vs %v", small, big)
	}
	if float64(big) < 0.1 {
		t.Fatalf("64 MiB migration cost only %v of LB wall time", big)
	}
}

type sizedChare struct {
	iterChare *iterChare
	size      int
}

func (s *sizedChare) PackSize() int { return s.size }
func (s *sizedChare) Recv(ctx *Ctx, data interface{}) float64 {
	return s.iterChare.Recv(ctx, data)
}

func TestLBStepCostGrowsWithTaskCount(t *testing.T) {
	// Stats messages are sized per task; more chares means a costlier
	// gather. 4096 chares amplify it: their LB wall time is about 3.7
	// times that of 8.
	run := func(chares int) sim.Time {
		eng, m, n := testWorld(2, 2)
		r := NewRTS(Config{
			Machine: m, Net: n, Cores: allCores(m),
			Strategy: &core.RefineLB{EpsilonFrac: 0.05},
		})
		r.NewArray("w", chares, func(int) Chare { return &iterChare{iters: 10, cost: 0.001, syncEvery: 5} })
		r.Start()
		runToFinish(t, eng, r, 200)
		return r.LBWallTime()
	}
	few := run(8)
	many := run(4096)
	if many <= few {
		t.Fatalf("LB wall time did not grow with task count: %v vs %v", few, many)
	}
}

func TestRuntimeEmitsTaskTrace(t *testing.T) {
	eng, m, n := testWorld(1, 2)
	rec := trace.NewRecorder()
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Trace: rec})
	r.NewArray("w", 4, func(int) Chare { return &iterChare{iters: 5, cost: 0.05} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	finish := r.FinishTime()
	for c := 0; c < 2; c++ {
		if f := rec.BusyFraction(c, trace.KindTask, 0, finish); f < 0.5 {
			t.Fatalf("core %d task fraction %v, want busy", c, f)
		}
	}
}

func TestTraceAsBackgroundKind(t *testing.T) {
	eng, m, n := testWorld(1, 1)
	rec := trace.NewRecorder()
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Trace: rec, TraceAsBackground: true})
	r.NewArray("w", 1, func(int) Chare { return &iterChare{iters: 3, cost: 0.05} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if f := rec.BusyFraction(0, trace.KindBackground, 0, r.FinishTime()); f < 0.5 {
		t.Fatalf("background fraction %v, want busy", f)
	}
	if f := rec.BusyFraction(0, trace.KindTask, 0, r.FinishTime()); f != 0 {
		t.Fatalf("task segments recorded (%v) despite TraceAsBackground", f)
	}
}

func TestReductionMaxMinThroughRuntime(t *testing.T) {
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	var maxes, mins []float64
	r.NewArray("r", 4, func(i int) Chare {
		return &opReduceChare{value: float64(i * i), maxes: &maxes, mins: &mins}
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(maxes) != 4 || len(mins) != 4 {
		t.Fatalf("results: %d maxes, %d mins", len(maxes), len(mins))
	}
	for i := range maxes {
		if maxes[i] != 9 || mins[i] != 0 {
			t.Fatalf("max=%v min=%v, want 9/0", maxes[i], mins[i])
		}
	}
}

type opReduceChare struct {
	value       float64
	maxes, mins *[]float64
	gotMax      bool
}

func (c *opReduceChare) PackSize() int { return 64 }
func (c *opReduceChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch d := data.(type) {
	case Start:
		ctx.Contribute("max", c.value, ReduceMax)
		return 0.001
	case ReductionResult:
		switch d.Tag {
		case "max":
			*c.maxes = append(*c.maxes, d.Value)
			c.gotMax = true
			ctx.Contribute("min", c.value, ReduceMin)
			return 0.001
		case "min":
			*c.mins = append(*c.mins, d.Value)
			ctx.Done()
			return 0.001
		}
	}
	return 0
}

func TestReductionTreeArities(t *testing.T) {
	// The reduction result must be identical for any spanning-tree fan-in,
	// including a deep binary tree over 8 PEs.
	for _, arity := range []int{2, 3, 4, 8} {
		eng, m, n := testWorld(2, 4)
		r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
		r.arity = arity
		chares := map[int]*reduceChare{}
		r.NewArray("r", 16, func(i int) Chare {
			c := &reduceChare{value: float64(i), iters: 2}
			chares[i] = c
			return c
		})
		r.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !r.Finished() {
			t.Fatalf("arity %d: reduction rounds did not complete", arity)
		}
		want := 120.0 // 0+1+...+15
		for i, c := range chares {
			for _, v := range c.results {
				if v != want {
					t.Fatalf("arity %d: chare %d got %v, want %v", arity, i, v, want)
				}
			}
		}
	}
}

func TestReductionWithEmptySubtrees(t *testing.T) {
	// All chares on PE 0 of an 8-PE runtime: every other subtree is
	// empty and must not stall the reduction.
	eng, m, n := testWorld(2, 4)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.arity = 2
	got := make(map[int]float64)
	r.NewArray("solo", 3, func(i int) Chare {
		return &soloReduceChare{value: float64(i + 1), got: got}
	})
	// Force all chares to PE 0 by overriding placement: block placement
	// with 3 chares on 8 PEs puts them on PEs 0,2,5 — that still leaves
	// empty subtrees, which is the point.
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("reduction with empty subtrees deadlocked")
	}
	for i := 0; i < 3; i++ {
		if got[i] != 6 {
			t.Fatalf("chare %d got %v, want 6", i, got[i])
		}
	}
}

type soloReduceChare struct {
	value float64
	got   map[int]float64
}

func (c *soloReduceChare) PackSize() int { return 64 }
func (c *soloReduceChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch d := data.(type) {
	case Start:
		ctx.Contribute("s", c.value, ReduceSum)
		return 0.001
	case ReductionResult:
		c.got[ctx.Self().Index] = d.Value
		ctx.Done()
		return 0
	}
	return 0
}

func TestTwoArraysSyncTogether(t *testing.T) {
	// A PE enters the LB step only when every local chare — across ALL
	// arrays — has synced; two arrays at the same cadence must work.
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: &core.RefineLB{EpsilonFrac: 0.05}})
	r.NewArray("a", 4, func(int) Chare { return &iterChare{iters: 10, cost: 0.01, syncEvery: 5} })
	r.NewArray("b", 4, func(int) Chare { return &iterChare{iters: 10, cost: 0.02, syncEvery: 5} })
	r.Start()
	runToFinish(t, eng, r, 100)
	if r.LBSteps() < 1 {
		t.Fatal("no LB steps with two arrays")
	}
}

func TestChareAccessor(t *testing.T) {
	_, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	want := &iterChare{iters: 1}
	r.NewArray("w", 1, func(int) Chare { return want })
	if got := r.Chare(ChareID{Array: "w", Index: 0}); got != Chare(want) {
		t.Fatal("Chare accessor returned a different object")
	}
}

func TestArraySizeUnknownPanics(t *testing.T) {
	_, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown array did not panic")
		}
	}()
	r.ArraySize("ghost")
}

func TestNegativeEntryCostPanics(t *testing.T) {
	eng, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("bad", 1, func(int) Chare { return badCost{} })
	defer func() {
		if recover() == nil {
			t.Fatal("negative entry cost did not panic")
		}
	}()
	r.Start()
	_ = eng.Run()
}

type badCost struct{}

func (badCost) PackSize() int                  { return 1 }
func (badCost) Recv(*Ctx, interface{}) float64 { return -1 }

func TestZeroCoreConfigPanics(t *testing.T) {
	_, m, n := testWorld(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("empty cores did not panic")
		}
	}()
	NewRTS(Config{Machine: m, Net: n})
}

func TestAccessorMethods(t *testing.T) {
	eng, m, n := testWorld(2, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: []int{1, 3, 0}})
	if r.Engine() != eng {
		t.Fatal("Engine accessor")
	}
	if r.NumPEs() != 3 {
		t.Fatalf("NumPEs=%d", r.NumPEs())
	}
	if r.CoreOf(0) != 1 || r.CoreOf(1) != 3 || r.CoreOf(2) != 0 {
		t.Fatal("CoreOf mapping does not follow Cores order")
	}
}

// ctxProbe inspects the Ctx accessors from inside an entry.
type ctxProbe struct {
	now     float64
	numPEs  int
	arrSize int
	negSend bool
}

func (c *ctxProbe) PackSize() int { return 16 }
func (c *ctxProbe) Recv(ctx *Ctx, data interface{}) float64 {
	if _, ok := data.(Start); !ok {
		return 0
	}
	c.now = float64(ctx.Now())
	c.numPEs = ctx.NumPEs()
	c.arrSize = ctx.ArraySize("probe")
	func() {
		defer func() { c.negSend = recover() != nil }()
		ctx.Send(ctx.Self(), nil, -1)
	}()
	ctx.Done()
	return 0
}

func TestCtxAccessors(t *testing.T) {
	eng, m, n := testWorld(1, 2)
	probe := &ctxProbe{}
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("probe", 3, func(i int) Chare {
		if i == 0 {
			return probe
		}
		return &iterChare{iters: 1, cost: 0}
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if probe.numPEs != 2 || probe.arrSize != 3 {
		t.Fatalf("ctx accessors: %+v", probe)
	}
	if !probe.negSend {
		t.Fatal("negative-size Send did not panic")
	}
}

func TestConfigDefaults(t *testing.T) {
	_, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: []int{0}})
	if r.cfg.ThreadWeight != 1 || r.name != "rts" {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
	if math.IsNaN(float64(r.LBWallTime())) {
		t.Fatal("LBWallTime NaN on fresh runtime")
	}
}
