package apps

// JacobiKernel performs 5-point Jacobi relaxation of the Laplace equation
// on one block of the global grid. The global boundary condition is
// Dirichlet: the top edge of the domain is held at 1.0, the other three
// edges at 0.0, so the solution converges to the harmonic interpolation.
type JacobiKernel struct {
	block
	cur  []float64
	next []float64
	// lastDelta is the max absolute update of the latest Step, for
	// convergence monitoring.
	lastDelta float64
}

// NewJacobiKernel builds the block covering [x0,x0+w) x [y0,y0+h) of a
// gw x gh grid, initialized to zero.
func NewJacobiKernel(gw, gh int) func(bx, by, x0, y0, w, h int) Kernel {
	// Physical-boundary rows, shared read-only by the factory's blocks.
	zero, hot := make([]float64, gw), make([]float64, gw)
	for x := range hot {
		hot[x] = 1.0
	}
	return func(bx, by, x0, y0, w, h int) Kernel {
		k := &JacobiKernel{
			block: block{w: w, h: h, boundN: zero[:w], boundS: zero[:w]},
			cur:   make([]float64, w*h),
			next:  make([]float64, w*h),
		}
		if y0 == 0 {
			// The row above the block is global row -1: the hot edge.
			k.boundN = hot[:w]
		}
		return k
	}
}

// Step implements Kernel.
func (k *JacobiKernel) Step(edges map[int][]float64) { k.StepGhosts(ghostsOf(edges)) }

// StepGhosts implements Kernel: next = average of the four neighbors.
func (k *JacobiKernel) StepGhosts(g Ghosts) {
	w := k.w
	maxDelta := 0.0
	for y := 0; y < k.h; y++ {
		north, south, west, east := k.around(k.cur, y, &g)
		row := k.cur[y*w : (y+1)*w]
		next := k.next[y*w : (y+1)*w]
		// The west neighbor carries over from the previous cell; only
		// the last cell's east neighbor lies beyond the row.
		wv := west
		for x, u := range row {
			ev := east
			if x < w-1 {
				ev = row[x+1]
			}
			v := 0.25 * (north[x] + south[x] + wv + ev)
			next[x] = v
			d := v - u
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
			wv = u
		}
	}
	k.cur, k.next = k.next, k.cur
	k.lastDelta = maxDelta
}

// Edge implements Kernel. The stencil chare sends dst while it steps the
// kernel on, so dst never aliases kernel state.
func (k *JacobiKernel) Edge(d int, dst []float64) { k.edge(k.cur, d, dst) }

// Bytes implements Kernel.
func (k *JacobiKernel) Bytes() int { return 8 * k.w * k.h }

// LastDelta returns the largest cell update of the most recent Step.
func (k *JacobiKernel) LastDelta() float64 { return k.lastDelta }

// Value returns the current value at block-local (x, y), for tests.
func (k *JacobiKernel) Value(x, y int) float64 { return k.cur[y*k.w+x] }
