package apps

import (
	"math"
	"testing"

	"cloudlb/internal/charm"
)

// serialMD is the reference implementation: all-pairs truncated LJ with
// the same softening, leapfrog and reflecting walls as the cell version.
func serialMD(parts []Particle, steps int, cfg Mol3DConfig) []Particle {
	c := cfg.withDefaults()
	ps := append([]Particle(nil), parts...)
	n := len(ps)
	lx := float64(c.CellsX) * c.CellSize
	ly := float64(c.CellsY) * c.CellSize
	lz := float64(c.CellsZ) * c.CellSize
	rc2 := c.Cutoff * c.Cutoff
	minR2 := 0.64 * c.Sigma * c.Sigma
	fx := make([]float64, n)
	fy := make([]float64, n)
	fz := make([]float64, n)
	for s := 0; s < steps; s++ {
		for i := range fx {
			fx[i], fy[i], fz[i] = 0, 0, 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				dx := ps[i].X - ps[j].X
				dy := ps[i].Y - ps[j].Y
				dz := ps[i].Z - ps[j].Z
				r2 := dx*dx + dy*dy + dz*dz
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				if r2 < minR2 {
					r2 = minR2
				}
				s2 := c.Sigma * c.Sigma / r2
				s6 := s2 * s2 * s2
				f := 24 * c.Epsilon * (2*s6*s6 - s6) / r2
				fx[i] += f * dx
				fy[i] += f * dy
				fz[i] += f * dz
			}
		}
		for i := range ps {
			p := &ps[i]
			p.VX += fx[i] * c.Dt
			p.VY += fy[i] * c.Dt
			p.VZ += fz[i] * c.Dt
			p.X += p.VX * c.Dt
			p.Y += p.VY * c.Dt
			p.Z += p.VZ * c.Dt
			reflect(&p.X, &p.VX, lx)
			reflect(&p.Y, &p.VY, ly)
			reflect(&p.Z, &p.VZ, lz)
		}
	}
	return ps
}

func md(t *testing.T, cfg Mol3DConfig, nodes, coresPer int) *Mol3DApp {
	t.Helper()
	eng, rts := testRTS(t, nodes, coresPer)
	app := NewMol3DApp(rts, cfg)
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !rts.Finished() {
		t.Fatal("md run did not finish")
	}
	return app
}

func TestMol3DMatchesSerialReference(t *testing.T) {
	cfg := Mol3DConfig{
		CellsX: 2, CellsY: 2, CellsZ: 2,
		CellSize: 1.0, Particles: 60, ClusterFrac: 0.5,
		Seed: 42, Dt: 2e-3, Iters: 25,
		CostPerPair: 1e-8, CostPerParticle: 1e-8,
	}
	// The reference starts from the same deterministic initial state,
	// taken from a constructed (not run) app.
	_, rts := testRTS(t, 1, 1)
	ref := NewMol3DApp(rts, cfg)
	want := serialMD(ref.Particles(), cfg.Iters, cfg)

	for _, r := range exchangeRuntimes {
		eng, rts := r.build(t)
		app := NewMol3DApp(rts, cfg)
		rts.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !rts.Finished() {
			t.Fatalf("%s: md run did not finish", r.name)
		}
		got := app.Particles()
		if len(got) != cfg.Particles {
			t.Fatalf("%s: lost particles: %d of %d", r.name, len(got), cfg.Particles)
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("%s: particle order mismatch at %d", r.name, i)
			}
			dev := math.Abs(got[i].X-want[i].X) + math.Abs(got[i].Y-want[i].Y) + math.Abs(got[i].Z-want[i].Z)
			if dev > 1e-9 {
				t.Fatalf("%s: particle %d drifted %.3g from serial reference", r.name, got[i].ID, dev)
			}
		}
	}
}

func TestMol3DMomentumConserved(t *testing.T) {
	// With symmetric pair forces and no wall hits, total momentum is
	// conserved to floating-point precision. Weak coupling (tiny epsilon)
	// keeps velocities ~0.1, so over 20 steps of dt=1e-3 nothing reaches
	// a wall; any residual drift would expose an asymmetric pair in the
	// ghost/mover/departed bookkeeping.
	cfg := Mol3DConfig{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		CellSize: 1.0, Particles: 80, ClusterFrac: 0.9,
		Seed: 7, Dt: 1e-3, Iters: 20,
		Epsilon:     1e-6,
		CostPerPair: 1e-9,
	}
	eng, rts := testRTS(t, 1, 4)
	app := NewMol3DApp(rts, cfg)
	before := momentum(app.Particles())
	rts.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	after := momentum(app.Particles())
	for d := 0; d < 3; d++ {
		if math.Abs(after[d]-before[d]) > 1e-8 {
			t.Fatalf("momentum axis %d drifted %v -> %v (asymmetric force pair?)", d, before[d], after[d])
		}
	}
}

func momentum(ps []Particle) [3]float64 {
	var m [3]float64
	for _, p := range ps {
		m[0] += p.VX
		m[1] += p.VY
		m[2] += p.VZ
	}
	return m
}

func TestMol3DParticleCountConserved(t *testing.T) {
	cfg := Mol3DConfig{
		CellsX: 2, CellsY: 2, CellsZ: 1,
		CellSize: 1.0, Particles: 100, ClusterFrac: 0.6,
		Seed: 3, Dt: 2e-3, Iters: 40,
		CostPerPair: 1e-9,
	}
	app := md(t, cfg, 1, 4)
	got := app.Particles()
	if len(got) != cfg.Particles {
		t.Fatalf("particle count %d, want %d", len(got), cfg.Particles)
	}
	seen := map[int]bool{}
	for _, p := range got {
		if seen[p.ID] {
			t.Fatalf("duplicate particle %d", p.ID)
		}
		seen[p.ID] = true
	}
	// All particles within the domain.
	lx := float64(cfg.CellsX) * cfg.CellSize
	ly := float64(cfg.CellsY) * cfg.CellSize
	lz := float64(cfg.CellsZ) * cfg.CellSize
	for _, p := range got {
		if p.X < 0 || p.X >= lx || p.Y < 0 || p.Y >= ly || p.Z < 0 || p.Z >= lz {
			t.Fatalf("particle %d escaped the domain: %+v", p.ID, p)
		}
	}
}

func TestMol3DClusterSkewsLoad(t *testing.T) {
	// A strong cluster must make per-cell particle counts (and so loads)
	// uneven — the application-internal imbalance the paper relies on.
	cfg := Mol3DConfig{
		CellsX: 4, CellsY: 4, CellsZ: 1,
		CellSize: 1.0, Particles: 400, ClusterFrac: 0.8,
		Seed: 11, Dt: 1e-3, Iters: 1,
		CostPerPair: 1e-9,
	}
	eng, rts := testRTS(t, 1, 4)
	app := NewMol3DApp(rts, cfg)
	_ = eng
	_ = rts
	min, max := cfg.Particles, 0
	for i := 0; i < app.NumCells(); i++ {
		n := app.CellCount(i)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max < 3*min+10 {
		t.Fatalf("cluster too weak: cell counts min=%d max=%d", min, max)
	}
}

func TestMol3DDeterministic(t *testing.T) {
	cfg := Mol3DConfig{
		CellsX: 2, CellsY: 2, CellsZ: 1,
		CellSize: 1.0, Particles: 50, ClusterFrac: 0.5,
		Seed: 5, Dt: 2e-3, Iters: 15,
		CostPerPair: 1e-9,
	}
	a := md(t, cfg, 1, 4).Particles()
	b := md(t, cfg, 1, 4).Particles()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at particle %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMol3DWithSyncMatchesWithoutSync(t *testing.T) {
	// LB barriers must not change physics, nor must migrating cells
	// whose steps ran on a kernel worker.
	base := Mol3DConfig{
		CellsX: 2, CellsY: 2, CellsZ: 1,
		CellSize: 1.0, Particles: 60, ClusterFrac: 0.5,
		Seed: 9, Dt: 2e-3, Iters: 20,
		CostPerPair: 1e-9,
	}
	plain := md(t, base, 1, 4).Particles()

	synced := base
	synced.SyncEvery = 5
	for _, kern := range []*charm.KernelWorker{nil, kernelWorker(t)} {
		eng, rts := testRTSWithStrategy(t, kern)
		app := NewMol3DApp(rts, synced)
		rts.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !rts.Finished() {
			t.Fatal("synced md run did not finish")
		}
		got := app.Particles()
		for i := range plain {
			if plain[i] != got[i] {
				t.Fatalf("sync (kernel worker %v) changed physics at particle %d", kern != nil, i)
			}
		}
	}
}

func TestMol3DInvalidConfigPanics(t *testing.T) {
	_, rts := testRTS(t, 1, 1)
	bad := []Mol3DConfig{
		{CellsX: 0, CellsY: 1, CellsZ: 1, Iters: 1},
		{CellsX: 1, CellsY: 1, CellsZ: 1, Iters: 0},
		{CellsX: 1, CellsY: 1, CellsZ: 1, Iters: 1, CellSize: 1, Cutoff: 2},
		{CellsX: 1, CellsY: 1, CellsZ: 1, Iters: 1, ClusterFrac: 1.5},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewMol3DApp(rts, cfg)
		}()
	}
}

func TestClampHelpers(t *testing.T) {
	if clamp(-1, 0, 10) != 0 {
		t.Fatal("clamp low")
	}
	if v := clamp(10, 0, 10); v >= 10 || v < 9.999 {
		t.Fatalf("clamp hi gave %v", v)
	}
	if clampInt(5, 0, 3) != 3 || clampInt(-1, 0, 3) != 0 || clampInt(2, 0, 3) != 2 {
		t.Fatal("clampInt")
	}
	if abs(-3) != 3 || abs(3) != 3 {
		t.Fatal("abs")
	}
}

// TestMol3DMoversExportedOnce pins the count stepCost relies on: every
// particle a cell hands to a neighbor is in that cell's ghost export
// exactly once, so a position message holds len(Ghost) − len(Movers)
// ghosts its receiver does not adopt. An outgoing message keeps its
// contents for two iterations, so checking every cell's messages once
// per iteration sees each of them.
func TestMol3DMoversExportedOnce(t *testing.T) {
	cfg := Mol3DConfig{
		CellsX: 4, CellsY: 4, CellsZ: 1,
		CellSize: 1.0, Cutoff: 0.8, Particles: 128,
		ClusterFrac: 0.3, ClusterSigmaFrac: 0.25,
		Seed: 3, Dt: 5e-4, Epsilon: 0.2, Iters: 200,
		CostPerPair: 1e-8,
	}
	eng, rts := testRTS(t, 1, 4)
	app := NewMol3DApp(rts, cfg)
	rts.Start()
	movers := 0
	for it := 1; it <= cfg.Iters; it++ {
		for i := 0; i < app.NumCells(); i++ {
			for app.Iterations(i) < it {
				if !eng.Step() {
					t.Fatal("Mol3D world ran out of events")
				}
			}
		}
		for _, c := range app.chares {
			for p := range c.out {
				for _, m := range c.out[p] {
					for _, mv := range m.Movers {
						n := 0
						for _, g := range m.Ghost {
							if g.ID == mv.ID {
								n++
							}
						}
						if n != 1 {
							t.Fatalf("cell %d, iteration %d: mover %d is in its ghost export %d times, want 1", c.index, m.Iter, mv.ID, n)
						}
					}
					movers += len(m.Movers)
				}
			}
		}
	}
	if movers == 0 {
		t.Fatal("no particle changed cells; the check proved nothing")
	}
}
