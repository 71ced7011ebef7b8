package experiment

import (
	"fmt"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// This file holds the reduced-scale benchmark workloads the repository's
// root `go test -bench` suite and the bench/ module's layer ladder share.

// BenchScale is the reduced iteration scale the benchmark suite runs at:
// small enough to keep one op around a second, large enough to leave the
// balancer several LB periods to converge.
const BenchScale = 0.15

// NamedBench is one benchmark workload; Run performs a single op.
type NamedBench struct {
	Name string
	Run  func()
}

// ShardedBench is the workload the sharded scheduler targets: the
// heaviest single scenario of the evaluation — Mol3D on the full 32-core
// testbed under the 4x-preferred background job, with load balancing
// exercising the window-aligned sequential sections. One op is one whole
// scenario run at the given shard count; comparing shard counts at a
// given GOMAXPROCS measures the conservative windows' overhead (P=1) and
// speedup (P>=shards). Results are byte-identical at every shard count.
func ShardedBench(shards int) NamedBench {
	return NamedBench{fmt.Sprintf("Fig2Mol3DCellShards%d", shards), func() {
		Run(Scenario{App: Mol3D, Cores: 32, Strategy: Refine, BG: BGWave2D,
			BGWeight: 4, BGIters: 2400, Seed: 1, Scale: 0.4, Shards: shards})
	}}
}

// AblationRun executes the DESIGN.md A1 ablation world under the given
// balancer and returns the application's wall time. The world is a
// 4-core run whose internal imbalance leaves the hogged core lightly
// loaded: PE 3's chares cost 30% of the others, and a CPU hog occupies
// core 3. A background-blind balancer mistakes core 3 for spare capacity
// and ships work into the interference; the paper's O_p term (Eq. 2)
// prevents exactly that.
func AblationRun(strategy core.Strategy) float64 {
	eng := sim.NewEngine()
	mach := machine.New(eng, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())
	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: []int{0, 1, 2, 3},
		Strategy: strategy, Name: "abl",
	})
	apps.NewStencilApp(rts, apps.StencilConfig{
		Array: "wave", GridW: 256, GridH: 128, CharesX: 16, CharesY: 8,
		Iters: 80, SyncEvery: 10, CostPerCell: 3e-6,
		CostScale: func(i int) float64 {
			// Blocks whose home PE is 3 (block placement: last quarter
			// of indices) are cheap.
			if i >= 96 {
				return 0.3
			}
			return 1
		},
		NewKernel: apps.NewWaveKernel(256, 128, 0.4),
	})
	interfere.StartHog(mach, interfere.HogConfig{Core: 3, Start: 0})
	rts.Start()
	mustFinish(eng, rts.Finished, 1000)
	return float64(rts.FinishTime())
}

// Steady-state iteration microbench shape: 32 Wave2D chares on one
// 4-core node, no sync points.
const steadyCharesX, steadyCharesY = 8, 4

// SteadyIterBench holds a live Wave2D world with load balancing disabled,
// advanced one superstep at a time. It isolates the runtime's
// steady-state per-iteration cost — edge messages, thread scheduling,
// kernel work — from LB machinery and startup transients, so hot-path
// allocation regressions show up separately from end-to-end runs.
type SteadyIterBench struct {
	eng  *sim.Engine
	app  *apps.StencilApp
	iter int
}

// NewSteadyIterBench builds the world and warms it past the startup
// transient, so the first timed StepOnce already runs on primed message
// pools and armed threads.
func NewSteadyIterBench() *SteadyIterBench {
	eng := sim.NewEngine()
	mach := machine.New(eng, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())
	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: []int{0, 1, 2, 3}, Name: "steady",
	})
	app := apps.NewStencilApp(rts, apps.StencilConfig{
		Array: "wave", GridW: 256, GridH: 128,
		CharesX: steadyCharesX, CharesY: steadyCharesY,
		Iters: 1 << 30, CostPerCell: 3e-6,
		NewKernel: apps.NewWaveKernel(256, 128, 0.4),
	})
	rts.Start()
	s := &SteadyIterBench{eng: eng, app: app}
	for i := 0; i < 8; i++ {
		s.StepOnce()
	}
	return s
}

// StepOnce advances the whole array one superstep: it drives the engine
// until every chare has completed one more iteration than before.
func (s *SteadyIterBench) StepOnce() {
	s.iter++
	for !s.caughtUp() {
		if !s.eng.Step() {
			panic("experiment: steady-state bench world ran out of events")
		}
	}
}

func (s *SteadyIterBench) caughtUp() bool {
	for by := 0; by < steadyCharesY; by++ {
		for bx := 0; bx < steadyCharesX; bx++ {
			if s.app.Iterations(bx, by) < s.iter {
				return false
			}
		}
	}
	return true
}
