package apps

import (
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func BenchmarkJacobiKernelStep(b *testing.B) { benchKernelStep(b, NewJacobiKernel(192, 192)) }

func BenchmarkWaveKernelStep(b *testing.B) { benchKernelStep(b, NewWaveKernel(192, 192, 0.4)) }

// benchKernelStep times one step of a 64x64 block of a 192x192 grid: the
// top-left block, all of whose sides are physical boundaries, through
// the map form; and the center block with all four ghost edges, the case
// every interior chare runs.
func benchKernelStep(b *testing.B, newKernel func(bx, by, x0, y0, w, h int) Kernel) {
	b.Run("boundary", func(b *testing.B) {
		k := newKernel(0, 0, 0, 0, 64, 64)
		edges := map[int][]float64{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step(edges)
		}
	})
	b.Run("interior", func(b *testing.B) {
		k := newKernel(1, 1, 64, 64, 64, 64)
		var g Ghosts
		for d := range g {
			g[d] = make([]float64, 64)
			for i := range g[d] {
				g[d][i] = 0.5
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.StepGhosts(g)
		}
	})
}

func BenchmarkStencilSimulation(b *testing.B) {
	// End-to-end simulated Wave2D on 4 cores: measures the whole stack
	// (engine, machine, network, runtime, kernels).
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		m := machine.New(eng, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
		n := xnet.New(m, xnet.DefaultConfig())
		rts := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1, 2, 3}})
		NewStencilApp(rts, StencilConfig{
			Array: "wave", GridW: 128, GridH: 64, CharesX: 8, CharesY: 4,
			Iters: 30, CostPerCell: 1e-6,
			NewKernel: NewWaveKernel(128, 64, 0.4),
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMol3DSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		m := machine.New(eng, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
		n := xnet.New(m, xnet.DefaultConfig())
		rts := charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1, 2, 3}})
		NewMol3DApp(rts, Mol3DConfig{
			CellsX: 4, CellsY: 4, CellsZ: 1,
			CellSize: 1.0, Particles: 200, ClusterFrac: 0.4,
			Seed: 1, Dt: 1e-3, Iters: 15,
			CostPerPair: 1e-8,
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
