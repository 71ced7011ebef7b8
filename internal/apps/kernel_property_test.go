package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Jacobi's update is an average of neighbors, so with boundary
// values in [0,1] and interior in [0,1], every updated cell stays in
// [0,1] (discrete maximum principle).
func TestQuickJacobiMaximumPrinciple(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		k := NewJacobiKernel(16, 16)(0, 0, 4, 4, 8, 8).(*JacobiKernel)
		for i := range k.cur {
			k.cur[i] = r.Float64()
		}
		edges := map[int][]float64{}
		for _, d := range []int{dirN, dirS} {
			e := make([]float64, 8)
			for i := range e {
				e[i] = r.Float64()
			}
			edges[d] = e
		}
		for _, d := range []int{dirW, dirE} {
			e := make([]float64, 8)
			for i := range e {
				e[i] = r.Float64()
			}
			edges[d] = e
		}
		k.Step(edges)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := k.Value(x, y)
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: the wave update is linear, so stepping the sum of two states
// equals the sum of stepping each (superposition).
func TestQuickWaveSuperposition(t *testing.T) {
	mk := func(r *rand.Rand) *WaveKernel {
		k := NewWaveKernel(8, 8, 0.4)(0, 0, 0, 0, 8, 8).(*WaveKernel)
		for i := range k.u {
			k.u[i] = r.NormFloat64()
			k.uPrev[i] = r.NormFloat64()
		}
		return k
	}
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		a, b := mk(r), mk(r)
		sum := NewWaveKernel(8, 8, 0.4)(0, 0, 0, 0, 8, 8).(*WaveKernel)
		for i := range sum.u {
			sum.u[i] = a.u[i] + b.u[i]
			sum.uPrev[i] = a.uPrev[i] + b.uPrev[i]
		}
		edges := map[int][]float64{} // physical boundary on all sides
		a.Step(edges)
		b.Step(edges)
		sum.Step(edges)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if math.Abs(sum.Value(x, y)-(a.Value(x, y)+b.Value(x, y))) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pair force is antisymmetric — what a exerts on b is the
// negation of what b exerts on a — and the own-own loop's single
// evaluation per pair (Newton's third law) matches the one-sided loop
// evaluated from each side, as the ghost exchange's pair coverage needs.
func TestQuickLJForceAntisymmetric(t *testing.T) {
	cfg := Mol3DConfig{Epsilon: 1, Sigma: 0.25, CellSize: 1, Cutoff: 1}
	lj := newLJParams(cfg.withDefaults())
	f := func(ax, ay, az, bx, by, bz int16) bool {
		a := Particle{X: float64(ax) / 8192, Y: float64(ay) / 8192, Z: float64(az) / 8192}
		b := Particle{X: float64(bx) / 8192, Y: float64(by) / 8192, Z: float64(bz) / 8192}
		var onA, onB, pair [3][2]float64
		lj.addForces(onA[0][:1], onA[1][:1], onA[2][:1], []Particle{a}, &b)
		lj.addForces(onB[0][:1], onB[1][:1], onB[2][:1], []Particle{b}, &a)
		lj.addPairForces(pair[0][:], pair[1][:], pair[2][:], []Particle{a, b})
		for d := 0; d < 3; d++ {
			if onA[d][0] != -onB[d][0] || pair[d][0] != onA[d][0] || pair[d][1] != onB[d][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pair force is zero at or beyond the cutoff, in both pair
// loops.
func TestQuickLJForceCutoff(t *testing.T) {
	cfg := Mol3DConfig{Epsilon: 1, Sigma: 0.25, CellSize: 1, Cutoff: 0.5}
	lj := newLJParams(cfg.withDefaults())
	f := func(d uint16) bool {
		dist := 0.5 + float64(d)/65536 // >= cutoff
		a := Particle{}
		b := Particle{X: dist}
		var one, pair [3][2]float64
		lj.addForces(one[0][:1], one[1][:1], one[2][:1], []Particle{a}, &b)
		lj.addPairForces(pair[0][:], pair[1][:], pair[2][:], []Particle{a, b})
		return one == [3][2]float64{} && pair == [3][2]float64{}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Edge copies into the caller's buffer — mutating dst must not
// alter kernel state (the stencil chare sends its buffers while the
// kernel steps on), and a fresh dst reads the same values.
func TestQuickEdgeIsCopy(t *testing.T) {
	const w, h = 8, 6
	for _, mkKernel := range []func() Kernel{
		func() Kernel { return NewJacobiKernel(w, h)(0, 0, 0, 0, w, h) },
		func() Kernel { return NewWaveKernel(w, h, 0.4)(0, 0, 0, 0, w, h) },
	} {
		k := mkKernel()
		k.StepGhosts(Ghosts{}) // leave the all-zero start, so the edges differ
		for d := 0; d < numDirs; d++ {
			dst := make([]float64, edgeLen(d, w, h))
			k.Edge(d, dst)
			before := append([]float64(nil), dst...)
			for i := range dst {
				dst[i] = 1e9
			}
			fresh := make([]float64, len(dst))
			k.Edge(d, fresh)
			for i := range fresh {
				if fresh[i] != before[i] {
					t.Fatalf("dir %d: mutating the filled edge changed kernel state", d)
				}
			}
		}
	}
}
