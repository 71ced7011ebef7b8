package charm

import (
	"testing"

	"cloudlb/internal/core"
)

// pingChare bounces a message between two chares b.N times, then both
// sides shut down via a stop message.
type pingChare struct {
	remaining *int
	peer      ChareID
	finished  bool
}

type pingStop struct{}

func (c *pingChare) PackSize() int { return 64 }
func (c *pingChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch data.(type) {
	case Start:
		if ctx.Self().Index == 0 {
			ctx.Send(c.peer, tick{}, 64)
		}
		return 0
	case tick:
		if *c.remaining <= 0 {
			if !c.finished {
				c.finished = true
				ctx.Done()
				ctx.Send(c.peer, pingStop{}, 16)
			}
			return 0
		}
		*c.remaining--
		ctx.Send(c.peer, tick{}, 64)
		return 0
	case pingStop:
		if !c.finished {
			c.finished = true
			ctx.Done()
		}
		return 0
	}
	return 0
}

// BenchmarkMessageRoundtrip measures runtime messaging overhead: one
// inter-node hop per operation.
func BenchmarkMessageRoundtrip(b *testing.B) {
	eng, m, n := testWorld(2, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	remaining := b.N
	r.NewArray("p", 2, func(i int) Chare {
		return &pingChare{remaining: &remaining, peer: ChareID{Array: "p", Index: 1 - i}}
	})
	b.ResetTimer()
	r.Start()
	for !r.Finished() {
		if !eng.Step() {
			b.Fatal("engine drained before completion")
		}
	}
}

// BenchmarkDeepQueue measures one delivery through a PE whose application
// queue holds about a thousand others (1024 chares on one PE passing
// tokens round a ring); with an O(1) dequeue it costs what a shallow one
// does.
func BenchmarkDeepQueue(b *testing.B) {
	eng, _, fifo := ringWorld(1024)
	for fifo.sent < 8192 {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for start := fifo.sent; fifo.sent-start < b.N; {
		if !eng.Step() {
			b.Fatal("engine drained")
		}
	}
}

// BenchmarkLBStep measures the cost of one full AtSync load balancing
// step (gather, plan, migrate, resume) with 256 chares on 8 PEs.
func BenchmarkLBStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, m, n := testWorld(2, 4)
		r := NewRTS(Config{
			Machine: m, Net: n, Cores: allCores(m),
			Strategy: &core.RefineLB{EpsilonFrac: 0.02},
		})
		r.NewArray("w", 256, func(int) Chare { return &iterChare{iters: 10, cost: 0.001, syncEvery: 5} })
		r.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLBStepHierarchical is BenchmarkLBStep with the tree protocol,
// for comparing gather/scatter overhead shapes.
func BenchmarkLBStepHierarchical(b *testing.B) {
	var lbWall float64
	for i := 0; i < b.N; i++ {
		eng, m, n := testWorld(2, 4)
		r := NewRTS(Config{
			Machine: m, Net: n, Cores: allCores(m),
			Strategy:       &core.RefineLB{EpsilonFrac: 0.02},
			HierarchicalLB: true,
		})
		r.arity = 2
		r.NewArray("w", 256, func(int) Chare { return &iterChare{iters: 10, cost: 0.001, syncEvery: 5} })
		r.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		lbWall = float64(r.LBWallTime())
	}
	b.ReportMetric(lbWall*1000, "lb_wall_ms")
}
