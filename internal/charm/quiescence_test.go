package charm

import (
	"testing"

	"cloudlb/internal/sim"
)

// silentChare runs its iterations and simply stops sending, without ever
// calling Done — the workload shape quiescence detection exists for.
type silentChare struct {
	iters int
	done  int
	cost  float64
}

func (c *silentChare) PackSize() int { return 64 }
func (c *silentChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch data.(type) {
	case Start, tick:
		if c.done >= c.iters {
			return 0
		}
		c.done++
		if c.done < c.iters {
			ctx.Send(ctx.Self(), tick{}, 16)
		}
		return c.cost
	}
	return 0
}

func TestQuiescenceDetectedWhenWorkDrains(t *testing.T) {
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	chares := map[int]*silentChare{}
	r.NewArray("s", 4, func(i int) Chare {
		c := &silentChare{iters: 10, cost: 0.01}
		chares[i] = c
		return c
	})
	var quietAt sim.Time = -1
	r.StartQD(func() { quietAt = eng.Now() })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if quietAt < 0 {
		t.Fatal("quiescence never detected")
	}
	for i, c := range chares {
		if c.done != 10 {
			t.Fatalf("chare %d only ran %d iterations before QD", i, c.done)
		}
	}
	// QD fires at the very end of all activity: the engine's final time.
	if quietAt != eng.Now() {
		t.Fatalf("QD at %v, activity continued until %v", quietAt, eng.Now())
	}
}

func TestQuiescenceNotPremature(t *testing.T) {
	// A chare chain with long network gaps: QD must not fire while a
	// message is in flight even though all PEs are momentarily idle.
	eng, m, n := testWorld(2, 1) // two nodes: inter-node latency applies
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	var hops int
	r.NewArray("chain", 2, func(i int) Chare { return &chainChare{hops: &hops, max: 20} })
	fired := false
	r.StartQD(func() {
		fired = true
		if hops != 20 {
			t.Fatalf("QD fired after %d hops, want 20", hops)
		}
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("QD never fired")
	}
}

type chainChare struct {
	hops *int
	max  int
}

func (c *chainChare) PackSize() int { return 64 }
func (c *chainChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch data.(type) {
	case Start:
		if ctx.Self().Index == 0 {
			*c.hops++
			ctx.Send(ChareID{Array: "chain", Index: 1}, tick{}, 1<<16)
		}
		return 0.001
	case tick:
		if *c.hops < c.max {
			*c.hops++
			other := 1 - ctx.Self().Index
			ctx.Send(ChareID{Array: "chain", Index: other}, tick{}, 1<<16)
		}
		return 0.001
	}
	return 0
}

func TestQDOnAlreadyQuiescentRuntime(t *testing.T) {
	eng, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("s", 1, func(int) Chare { return &silentChare{iters: 1, cost: 0.01} })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	r.StartQD(func() { fired = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("QD on quiescent runtime did not fire")
	}
}

func TestQDCoexistsWithLBSteps(t *testing.T) {
	// QD must not fire during an LB step (system messages in flight).
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: &moveOnce{to: 1}})
	r.NewArray("w", 4, func(int) Chare { return &iterChare{iters: 10, cost: 0.01, syncEvery: 5} })
	var quietAt sim.Time = -1
	r.StartQD(func() { quietAt = eng.Now() })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	if quietAt < r.FinishTime() {
		t.Fatalf("QD at %v, before the run finished at %v", quietAt, r.FinishTime())
	}
}

func TestQDCallbackCanRestartWork(t *testing.T) {
	eng, m, n := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	c := &silentChare{iters: 5, cost: 0.01}
	r.NewArray("s", 1, func(int) Chare { return c })
	phase2 := false
	r.StartQD(func() {
		// Kick a second phase, then wait for quiet again.
		c.iters += 5
		r.send(0, r.record(ChareID{Array: "s", Index: 0}), tick{}, 16)
		r.StartQD(func() { phase2 = true })
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !phase2 {
		t.Fatal("second QD never fired")
	}
	if c.done != 10 {
		t.Fatalf("chare ran %d iterations, want 10", c.done)
	}
}
