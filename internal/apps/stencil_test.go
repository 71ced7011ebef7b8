package apps

import (
	"math"
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

func testRTS(t *testing.T, nodes, coresPer int) (*sim.Engine, *charm.RTS) {
	t.Helper()
	return uniformRTS(t, nodes, coresPer, nil)
}

func uniformRTS(t *testing.T, nodes, coresPer int, kern *charm.KernelWorker) (*sim.Engine, *charm.RTS) {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.Config{Nodes: nodes, CoresPerNode: coresPer, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	cores := make([]int, m.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return eng, charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: cores, Kernels: kern})
}

// skewedRTS builds a 2-node x 2-core runtime whose timing pulls neighbors
// apart: core 0 runs at a quarter speed, node 1's links are 4x slow, and
// 10% of inter-node transmissions are lost and retransmitted. Neighbors
// then run an iteration apart and messages arrive late and out of order,
// which the exchanges' two-slot iteration window must absorb.
func skewedRTS(t *testing.T, kern *charm.KernelWorker) (*sim.Engine, *charm.RTS) {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.Config{Nodes: 2, CoresPerNode: 2, CoreSpeed: 1})
	m.Core(0).SetSpeed(0.25)
	n := xnet.New(m, xnet.Config{
		DropPct: 10, Seed: 1, StragglerNodes: []int{1}, StragglerFactor: 4,
	}.Resolved())
	return eng, charm.NewRTS(charm.Config{Machine: m, Net: n, Cores: []int{0, 1, 2, 3}, Kernels: kern})
}

// kernelWorker starts a kernel worker that stops when the test ends.
func kernelWorker(t *testing.T) *charm.KernelWorker {
	w := charm.StartKernelWorker()
	t.Cleanup(func() { w.Stop() })
	return w
}

// exchangeRuntimes are the runtimes the serial-reference tests run on.
// The kernel-worker rows run each step's arithmetic and sends beside the
// event thread.
var exchangeRuntimes = []struct {
	name  string
	build func(t *testing.T) (*sim.Engine, *charm.RTS)
}{
	{"uniform 1x4", func(t *testing.T) (*sim.Engine, *charm.RTS) { return uniformRTS(t, 1, 4, nil) }},
	{"skewed 2x2", func(t *testing.T) (*sim.Engine, *charm.RTS) { return skewedRTS(t, nil) }},
	{"uniform 1x4, kernel worker", func(t *testing.T) (*sim.Engine, *charm.RTS) {
		return uniformRTS(t, 1, 4, kernelWorker(t))
	}},
	{"skewed 2x2, kernel worker", func(t *testing.T) (*sim.Engine, *charm.RTS) {
		return skewedRTS(t, kernelWorker(t))
	}},
}

// serialJacobi runs the reference implementation: gw x gh grid, zero
// initial interior, top boundary 1.0, others 0.
func serialJacobi(gw, gh, iters int) []float64 {
	cur := make([]float64, gw*gh)
	next := make([]float64, gw*gh)
	get := func(x, y int) float64 {
		if y < 0 {
			return 1.0
		}
		if y >= gh || x < 0 || x >= gw {
			return 0.0
		}
		return cur[y*gw+x]
	}
	for it := 0; it < iters; it++ {
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				next[y*gw+x] = 0.25 * (get(x, y-1) + get(x, y+1) + get(x-1, y) + get(x+1, y))
			}
		}
		cur, next = next, cur
	}
	return cur
}

// gatherJacobi assembles the distributed grid from the app's kernels.
func gatherJacobi(app *StencilApp, gw, gh, cx, cy int) []float64 {
	out := make([]float64, gw*gh)
	bw, bh := gw/cx, gh/cy
	for by := 0; by < cy; by++ {
		for bx := 0; bx < cx; bx++ {
			k := app.Kernel(bx, by).(*JacobiKernel)
			for y := 0; y < bh; y++ {
				for x := 0; x < bw; x++ {
					out[(by*bh+y)*gw+(bx*bw+x)] = k.Value(x, y)
				}
			}
		}
	}
	return out
}

func TestJacobiMatchesSerialReference(t *testing.T) {
	const gw, gh, cx, cy, iters = 16, 16, 2, 2, 12
	eng, rts := testRTS(t, 1, 4)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: iters, CostPerCell: 1e-6,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !rts.Finished() {
		t.Fatal("jacobi run did not finish")
	}
	want := serialJacobi(gw, gh, iters)
	got := gatherJacobi(app, gw, gh, cx, cy)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestJacobiMatchesSerialUnderUnevenDecomposition(t *testing.T) {
	// 4x1 and 1x4 decompositions must agree with the serial result too,
	// also when skewed timing keeps neighbors an iteration apart.
	const gw, gh, iters = 16, 16, 9
	want := serialJacobi(gw, gh, iters)
	for _, r := range exchangeRuntimes {
		for _, shape := range [][2]int{{4, 1}, {1, 4}, {4, 4}} {
			cx, cy := shape[0], shape[1]
			eng, rts := r.build(t)
			app := NewStencilApp(rts, StencilConfig{
				Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
				Iters: iters, CostPerCell: 1e-6,
				NewKernel: NewJacobiKernel(gw, gh),
			})
			rts.Start()
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !rts.Finished() {
				t.Fatalf("%s decomp %dx%d did not finish", r.name, cx, cy)
			}
			got := gatherJacobi(app, gw, gh, cx, cy)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("%s decomp %dx%d cell %d: got %v, want %v", r.name, cx, cy, i, got[i], want[i])
				}
			}
		}
	}
}

func TestJacobiWithAtSyncMatchesSerial(t *testing.T) {
	// AtSync barriers (with a strategy that does nothing) must not change
	// the numerics.
	const gw, gh, cx, cy, iters = 16, 16, 2, 2, 12
	want := serialJacobi(gw, gh, iters)
	eng, rts := testRTSWithStrategy(t, nil)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: iters, SyncEvery: 4, CostPerCell: 1e-6,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := gatherJacobi(app, gw, gh, cx, cy)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if rts.LBSteps() == 0 {
		t.Fatal("no LB steps despite SyncEvery")
	}
}

func testRTSWithStrategy(t *testing.T, kern *charm.KernelWorker) (*sim.Engine, *charm.RTS) {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	n := xnet.New(m, xnet.DefaultConfig())
	return eng, charm.NewRTS(charm.Config{
		Machine: m, Net: n, Cores: []int{0, 1, 2, 3},
		Strategy: &core.RefineLB{EpsilonFrac: 0.05}, Kernels: kern,
	})
}

func TestJacobiConverges(t *testing.T) {
	const gw, gh, cx, cy = 32, 32, 4, 4
	eng, rts := testRTS(t, 1, 4)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
		Iters: 400, CostPerCell: 1e-7,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// After many iterations the update deltas shrink and values near the
	// hot top edge approach 1.
	k := app.Kernel(0, 0).(*JacobiKernel)
	if k.LastDelta() > 1e-3 {
		t.Fatalf("delta %v after 400 iters, expected convergence trend", k.LastDelta())
	}
	if v := k.Value(gw/(2*cx), 0); v < 0.5 {
		t.Fatalf("near-boundary value %v, want > 0.5 (boundary is 1.0)", v)
	}
}

// serialWave mirrors WaveKernel's scheme globally.
func serialWave(gw, gh, iters int, courant float64) []float64 {
	u := make([]float64, gw*gh)
	up := make([]float64, gw*gh)
	un := make([]float64, gw*gh)
	cxf, cyf := float64(gw)/2, float64(gh)/2
	sigma := float64(gw) / 8
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			dx := float64(x) + 0.5 - cxf
			dy := float64(y) + 0.5 - cyf
			v := math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma))
			u[y*gw+x] = v
			up[y*gw+x] = v
		}
	}
	get := func(x, y int) float64 {
		if x < 0 || x >= gw || y < 0 || y >= gh {
			return 0
		}
		return u[y*gw+x]
	}
	for it := 0; it < iters; it++ {
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				lap := get(x, y-1) + get(x, y+1) + get(x-1, y) + get(x+1, y) - 4*get(x, y)
				un[y*gw+x] = 2*get(x, y) - up[y*gw+x] + courant*lap
			}
		}
		up, u, un = u, un, up
	}
	return u
}

func TestWaveMatchesSerialReference(t *testing.T) {
	const gw, gh, cx, cy, iters = 16, 16, 4, 2, 15
	want := serialWave(gw, gh, iters, 0.4)
	bw, bh := gw/cx, gh/cy
	for _, r := range exchangeRuntimes {
		eng, rts := r.build(t)
		app := NewStencilApp(rts, StencilConfig{
			Array: "wave", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
			Iters: iters, CostPerCell: 1e-6,
			NewKernel: NewWaveKernel(gw, gh, 0.4),
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !rts.Finished() {
			t.Fatalf("%s: wave run did not finish", r.name)
		}
		for by := 0; by < cy; by++ {
			for bx := 0; bx < cx; bx++ {
				k := app.Kernel(bx, by).(*WaveKernel)
				for y := 0; y < bh; y++ {
					for x := 0; x < bw; x++ {
						got := k.Value(x, y)
						w := want[(by*bh+y)*gw+(bx*bw+x)]
						if math.Abs(got-w) > 1e-12 {
							t.Fatalf("%s block (%d,%d) cell (%d,%d): got %v, want %v", r.name, bx, by, x, y, got, w)
						}
					}
				}
			}
		}
	}
}

func TestWaveEnergyRoughlyConserved(t *testing.T) {
	const gw, gh, cx, cy = 32, 32, 2, 2
	energyAt := func(iters int) float64 {
		eng, rts := testRTS(t, 1, 4)
		app := NewStencilApp(rts, StencilConfig{
			Array: "wave", GridW: gw, GridH: gh, CharesX: cx, CharesY: cy,
			Iters: iters, CostPerCell: 1e-7,
			NewKernel: NewWaveKernel(gw, gh, 0.4),
		})
		rts.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		e := 0.0
		for by := 0; by < cy; by++ {
			for bx := 0; bx < cx; bx++ {
				e += app.Kernel(bx, by).(*WaveKernel).Energy()
			}
		}
		return e
	}
	e10, e100 := energyAt(10), energyAt(100)
	if e10 <= 0 || e100 <= 0 {
		t.Fatalf("degenerate energies %v %v", e10, e100)
	}
	// Explicit scheme with reflecting boundaries: the discrete energy
	// stays within a factor ~2 over this horizon (no blow-up, no decay
	// to zero).
	if ratio := e100 / e10; ratio > 2 || ratio < 0.5 {
		t.Fatalf("energy ratio %v between iters 10 and 100; scheme unstable?", ratio)
	}
}

func TestStencilInvalidConfigPanics(t *testing.T) {
	_, rts := testRTS(t, 1, 1)
	cases := []StencilConfig{
		{Array: "a", GridW: 0, GridH: 8, CharesX: 1, CharesY: 1, Iters: 1},
		{Array: "b", GridW: 10, GridH: 8, CharesX: 3, CharesY: 1, Iters: 1}, // not divisible
		{Array: "c", GridW: 8, GridH: 8, CharesX: 1, CharesY: 1, Iters: 0},
		{Array: "d", GridW: 8, GridH: 8, CharesX: 1, CharesY: 1, Iters: 1}, // nil kernel
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			if i != 3 {
				cfg.NewKernel = NewJacobiKernel(cfg.GridW, cfg.GridH)
			}
			NewStencilApp(rts, cfg)
		}()
	}
}

func TestStencilSingleChare(t *testing.T) {
	// 1x1 decomposition: no neighbors, all iterations drain in a burst.
	const gw, gh, iters = 8, 8, 5
	eng, rts := testRTS(t, 1, 1)
	app := NewStencilApp(rts, StencilConfig{
		Array: "jacobi", GridW: gw, GridH: gh, CharesX: 1, CharesY: 1,
		Iters: iters, CostPerCell: 1e-6,
		NewKernel: NewJacobiKernel(gw, gh),
	})
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := serialJacobi(gw, gh, iters)
	got := gatherJacobi(app, gw, gh, 1, 1)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
