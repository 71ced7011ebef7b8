package apps

import "math"

// WaveKernel integrates the 2D wave equation with the standard explicit
// 5-point scheme on one block:
//
//	u'' = c² ∇²u  →  u_next = 2u − u_prev + C·(N+S+E+W − 4u)
//
// with Courant number C < 0.5 for stability and zero-displacement
// (reflecting) global boundaries. The initial condition is a Gaussian
// pulse centered in the global domain, so blocks initialize consistently
// regardless of decomposition. This is the paper's Wave2D, used both as a
// measured application and as the 2-core interfering background job.
type WaveKernel struct {
	block
	courant float64
	u       []float64
	uPrev   []float64
	uNext   []float64
}

// NewWaveKernel returns a factory for blocks of a gw x gh domain with the
// given Courant number (0.4 if courant <= 0).
func NewWaveKernel(gw, gh int, courant float64) func(bx, by, x0, y0, w, h int) Kernel {
	if courant <= 0 {
		courant = 0.4
	}
	// The physical-boundary row, shared read-only by the factory's blocks.
	zero := make([]float64, gw)
	return func(bx, by, x0, y0, w, h int) Kernel {
		k := &WaveKernel{
			block:   block{w: w, h: h, boundN: zero[:w], boundS: zero[:w]},
			courant: courant,
			u:       make([]float64, w*h),
			uPrev:   make([]float64, w*h),
			uNext:   make([]float64, w*h),
		}
		// Gaussian pulse at the domain center, at rest (uPrev = u).
		cx, cy := float64(gw)/2, float64(gh)/2
		sigma := float64(gw) / 8
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dx := float64(x0+x) + 0.5 - cx
				dy := float64(y0+y) + 0.5 - cy
				v := math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma))
				k.u[y*w+x] = v
				k.uPrev[y*w+x] = v
			}
		}
		return k
	}
}

func (k *WaveKernel) at(x, y int) float64 { return k.u[y*k.w+x] }

// Step implements Kernel.
func (k *WaveKernel) Step(edges map[int][]float64) { k.StepGhosts(ghostsOf(edges)) }

// StepGhosts implements Kernel.
func (k *WaveKernel) StepGhosts(g Ghosts) {
	w, c := k.w, k.courant
	for y := 0; y < k.h; y++ {
		north, south, west, east := k.around(k.u, y, &g)
		row := k.u[y*w : (y+1)*w]
		prev := k.uPrev[y*w : (y+1)*w]
		next := k.uNext[y*w : (y+1)*w]
		// The west neighbor carries over from the previous cell; only
		// the last cell's east neighbor lies beyond the row.
		wv := west
		for x, u := range row {
			ev := east
			if x < w-1 {
				ev = row[x+1]
			}
			lap := north[x] + south[x] + wv + ev - 4*u
			next[x] = 2*u - prev[x] + c*lap
			wv = u
		}
	}
	k.uPrev, k.u, k.uNext = k.u, k.uNext, k.uPrev
}

// Edge implements Kernel (see JacobiKernel.Edge).
func (k *WaveKernel) Edge(d int, dst []float64) { k.edge(k.u, d, dst) }

// Bytes implements Kernel (two live time levels).
func (k *WaveKernel) Bytes() int { return 16 * k.w * k.h }

// Value returns u at block-local (x, y), for tests.
func (k *WaveKernel) Value(x, y int) float64 { return k.at(x, y) }

// Energy returns a discrete energy estimate of the block: kinetic term
// from the two time levels plus the potential (gradient) term. Interior
// gradients only; used by tests to check approximate conservation.
func (k *WaveKernel) Energy() float64 {
	e := 0.0
	for y := 0; y < k.h; y++ {
		for x := 0; x < k.w; x++ {
			v := k.at(x, y) - k.uPrev[y*k.w+x]
			e += v * v
			if x+1 < k.w {
				g := k.at(x+1, y) - k.at(x, y)
				e += k.courant * g * g
			}
			if y+1 < k.h {
				g := k.at(x, y+1) - k.at(x, y)
				e += k.courant * g * g
			}
		}
	}
	return e
}
