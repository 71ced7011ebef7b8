// Package apps implements the paper's three evaluation applications as
// chare arrays over the charm runtime:
//
//   - Jacobi2D: iterative 5-point Jacobi relaxation of the Laplace
//     equation on a 2D grid.
//   - Wave2D: the tightly coupled 5-point stencil wave-equation code the
//     paper uses both as a subject and as the interfering background job.
//   - Mol3D: a classical molecular dynamics mini-app with cell-list
//     decomposition and a skewed particle distribution, giving the
//     application-internal load imbalance the paper describes.
//
// The kernels perform real numerical work; the CPU cost charged to the
// simulated core is proportional to the work actually done (cells updated,
// pair interactions computed), so load shape and load dynamics are
// faithful even though absolute speed is a model parameter.
package apps

import (
	"fmt"

	"cloudlb/internal/charm"
)

// Direction indices for 2D neighbor exchange.
const (
	dirN = iota
	dirS
	dirW
	dirE
	numDirs
)

func opposite(d int) int {
	switch d {
	case dirN:
		return dirS
	case dirS:
		return dirN
	case dirW:
		return dirE
	case dirE:
		return dirW
	}
	panic("apps: bad direction")
}

// Ghosts holds one iteration's ghost edges indexed by direction (north,
// south, west, east); a nil entry marks a physical boundary.
type Ghosts [numDirs][]float64

// Kernel is the numerical core of a 2D stencil application, owning one
// chare's block of the global grid.
type Kernel interface {
	// StepGhosts advances one iteration given the ghost edges.
	StepGhosts(g Ghosts)
	// Step is StepGhosts with the edges indexed by direction in a map;
	// absent directions are physical boundaries. It remains for
	// bench/ladder.go's kernel rungs.
	Step(edges map[int][]float64)
	// Edge copies the block's current boundary values facing direction
	// d, to be sent to the neighbor there, into dst. dst is as long as
	// that side: the block width for north and south, the height for
	// west and east.
	Edge(d int, dst []float64)
	// Bytes returns the serialized size of the kernel state.
	Bytes() int
}

// ghostsOf is the map form of Kernel.Step converted to Ghosts.
func ghostsOf(edges map[int][]float64) Ghosts {
	return Ghosts{edges[dirN], edges[dirS], edges[dirW], edges[dirE]}
}

// block is the geometry both stencil kernels share: a w x h tile of the
// global grid, stored row-major, and the rows standing in for absent
// north and south ghost edges on the physical boundary.
type block struct {
	w, h           int
	boundN, boundS []float64
}

// around resolves the stencil neighbors of row y of u: the rows north and
// south of it (a row of u, a ghost edge or a physical-boundary row) and
// the values west and east of its ends (a ghost cell, or 0 on the
// physical boundary).
func (b *block) around(u []float64, y int, g *Ghosts) (north, south []float64, west, east float64) {
	w := b.w
	switch {
	case y > 0:
		north = u[(y-1)*w : y*w]
	case g[dirN] != nil:
		north = g[dirN]
	default:
		north = b.boundN
	}
	switch {
	case y < b.h-1:
		south = u[(y+1)*w : (y+2)*w]
	case g[dirS] != nil:
		south = g[dirS]
	default:
		south = b.boundS
	}
	if e := g[dirW]; e != nil {
		west = e[y]
	}
	if e := g[dirE]; e != nil {
		east = e[y]
	}
	return north[:w], south[:w], west, east
}

// edge copies the boundary values of u facing d into dst.
func (b *block) edge(u []float64, d int, dst []float64) {
	w, h := b.w, b.h
	if n := edgeLen(d, w, h); len(dst) != n {
		panic(fmt.Sprintf("apps: %d-cell buffer for a %d-cell edge", len(dst), n))
	}
	switch d {
	case dirN:
		copy(dst, u[:w])
	case dirS:
		copy(dst, u[(h-1)*w:])
	case dirW, dirE:
		col := 0
		if d == dirE {
			col = w - 1
		}
		for y := range dst {
			dst[y] = u[y*w+col]
		}
	default:
		panic("apps: bad edge direction")
	}
}

// edgeLen is the length of a w x h block's edge facing d.
func edgeLen(d, w, h int) int {
	if d == dirN || d == dirS {
		return w
	}
	return h
}

// StencilConfig describes a 2D stencil run.
type StencilConfig struct {
	// Array is the chare array name (e.g. "jacobi", "wave").
	Array string
	// GridW, GridH are the global grid dimensions in cells.
	GridW, GridH int
	// CharesX, CharesY decompose the grid into CharesX*CharesY blocks.
	CharesX, CharesY int
	// Iters is the number of iterations to run.
	Iters int
	// SyncEvery inserts an AtSync load balancing point every so many
	// iterations (0 = never).
	SyncEvery int
	// CostPerCell is the CPU seconds charged per cell update.
	CostPerCell float64
	// CostScale, when non-nil, multiplies a chare's per-iteration cost by
	// a chare-specific factor — used to model per-core measurement noise
	// and mild application heterogeneity across repeated runs.
	CostScale func(chareIndex int) float64
	// NewKernel builds the block kernel for the chare at block (bx, by)
	// covering [x0,x0+w) x [y0,y0+h) of the global grid.
	NewKernel func(bx, by, x0, y0, w, h int) Kernel
}

// StencilApp wires a stencil application into a runtime.
type StencilApp struct {
	cfg    StencilConfig
	rts    *charm.RTS
	chares []*stencilChare
}

// NewStencilApp registers the chare array on the runtime. Call before
// rts.Start.
func NewStencilApp(rts *charm.RTS, cfg StencilConfig) *StencilApp {
	if cfg.GridW <= 0 || cfg.GridH <= 0 || cfg.CharesX <= 0 || cfg.CharesY <= 0 {
		panic("apps: invalid stencil dimensions")
	}
	if cfg.GridW%cfg.CharesX != 0 || cfg.GridH%cfg.CharesY != 0 {
		panic(fmt.Sprintf("apps: grid %dx%d not divisible by chares %dx%d",
			cfg.GridW, cfg.GridH, cfg.CharesX, cfg.CharesY))
	}
	if cfg.Iters <= 0 {
		panic("apps: iterations must be positive")
	}
	if cfg.NewKernel == nil {
		panic("apps: NewKernel required")
	}
	app := &StencilApp{cfg: cfg, rts: rts}
	n := cfg.CharesX * cfg.CharesY
	app.chares = make([]*stencilChare, n)
	bw := cfg.GridW / cfg.CharesX
	bh := cfg.GridH / cfg.CharesY
	rts.NewArray(cfg.Array, n, func(i int) charm.Chare {
		bx, by := i%cfg.CharesX, i/cfg.CharesX
		c := &stencilChare{
			app: app, index: i, bx: bx, by: by,
			kernel: cfg.NewKernel(bx, by, bx*bw, by*bh, bw, bh),
		}
		c.initOut(bw, bh)
		app.chares[i] = c
		return c
	})
	return app
}

// Chare returns the block chare at (bx, by) for inspection in tests.
func (a *StencilApp) Chare(bx, by int) *stencilChare {
	return a.chares[by*a.cfg.CharesX+bx]
}

// Kernel returns the kernel of block (bx, by).
func (a *StencilApp) Kernel(bx, by int) Kernel { return a.Chare(bx, by).kernel }

// Iterations returns the completed iteration count of block (bx, by).
func (a *StencilApp) Iterations(bx, by int) int { return a.Chare(bx, by).iter }

type edgeMsg struct {
	Iter int
	Dir  int // direction from the sender's point of view
	Data []float64
}

// stencilChare runs one block of the stencil.
//
// Its edge exchange allocates nothing: neighbors are never more than one
// iteration apart. A chare computes iteration i+1 only after it holds
// every neighbor's edge for i+1, and a neighbor sends that edge only
// after computing i, which needed this chare's edge for i. So every edge
// that arrives is for the receiver's current iteration or the next one,
// and an edge sent for iteration i has been consumed before its sender
// can compute i+1 and send for i+2. Both sides therefore keep two slots
// indexed by iteration parity: received edges are held by pointer until
// their step, and each outgoing message with its buffer is rewritten two
// iterations after it was sent. windowSlot panics on any message outside
// the window.
type stencilChare struct {
	app    *StencilApp
	index  int
	bx, by int
	kernel Kernel

	iter     int
	atSync   bool // between AtSync and Resume; no stepping
	finished bool // Done has been signaled
	// sendNext marks a step whose tail also sends the next iteration's
	// edges.
	sendNext bool
	// in holds the edges received for iterations of each parity, indexed
	// by the direction they arrive from; inN counts each slot's edges.
	in  [2][numDirs]*edgeMsg
	inN [2]int
	// out holds the outgoing edges of each parity, indexed by direction.
	out  [2][numDirs]edgeMsg
	nbrs []int // cached neighbors(); the decomposition never changes
	// tail is the step's deferred tail (see drainReady), bound once so
	// deferring it allocates nothing.
	tail func(*charm.Ctx)
}

// initOut carves the outgoing edge buffers of both parities for a
// bw x bh block from one allocation.
func (c *stencilChare) initOut(bw, bh int) {
	n := 0
	for _, d := range c.neighbors() {
		n += edgeLen(d, bw, bh)
	}
	buf := make([]float64, 2*n)
	for p := range c.out {
		for _, d := range c.neighbors() {
			l := edgeLen(d, bw, bh)
			c.out[p][d] = edgeMsg{Dir: d, Data: buf[:l:l]}
			buf = buf[l:]
		}
	}
	c.tail = c.stepTail
}

// windowSlot returns the parity slot of a message for iteration msgIter
// arriving at a chare on iteration iter, and panics unless msgIter is
// iter or iter+1 (see stencilChare).
func windowSlot(kind string, index, iter, msgIter int) int {
	if msgIter != iter && msgIter != iter+1 {
		panic(fmt.Sprintf("apps: %s for iteration %d at chare %d on iteration %d", kind, msgIter, index, iter))
	}
	return msgIter & 1
}

// PackSize implements charm.Chare.
func (c *stencilChare) PackSize() int { return c.kernel.Bytes() + 256 }

// neighbors returns the directions that have a neighboring chare. The
// block layout is fixed for the run, so the list is computed once per
// chare; it is consulted twice per iteration on the simulation hot path.
func (c *stencilChare) neighbors() []int {
	if c.nbrs != nil {
		return c.nbrs
	}
	ds := make([]int, 0, numDirs)
	if c.by > 0 {
		ds = append(ds, dirN)
	}
	if c.by < c.app.cfg.CharesY-1 {
		ds = append(ds, dirS)
	}
	if c.bx > 0 {
		ds = append(ds, dirW)
	}
	if c.bx < c.app.cfg.CharesX-1 {
		ds = append(ds, dirE)
	}
	c.nbrs = ds
	return ds
}

func (c *stencilChare) neighborID(d int) charm.ChareID {
	nx, ny := c.bx, c.by
	switch d {
	case dirN:
		ny--
	case dirS:
		ny++
	case dirW:
		nx--
	case dirE:
		nx++
	}
	return charm.ChareID{Array: c.app.cfg.Array, Index: ny*c.app.cfg.CharesX + nx}
}

// Recv implements charm.Chare.
func (c *stencilChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case charm.Start:
		c.sendEdges(ctx)
		return c.drainReady(ctx)
	case charm.Resume:
		c.atSync = false
		c.sendEdges(ctx)
		return c.drainReady(ctx)
	case *edgeMsg:
		p := windowSlot("edge", c.index, c.iter, m.Iter)
		recvDir := opposite(m.Dir)
		if c.in[p][recvDir] != nil {
			panic(fmt.Sprintf("apps: duplicate edge iter=%d dir=%d at chare %d", m.Iter, recvDir, c.index))
		}
		c.in[p][recvDir] = m
		c.inN[p]++
		return c.drainReady(ctx)
	}
	panic(fmt.Sprintf("apps: stencil chare got unexpected message %T", data))
}

// drainReady computes as many iterations as have complete edge sets,
// stopping at sync points and completion. It returns the accumulated CPU
// cost of the computation performed in this entry. A step's cost is its
// cell count, so the kernel step and the edge sends that read it are the
// step's tail, deferred to the kernel worker when the entry ends with
// it. A step the entry goes on past runs its tail here.
func (c *stencilChare) drainReady(ctx *charm.Ctx) float64 {
	cost := 0.0
	for {
		if c.finished || c.atSync {
			return cost
		}
		if c.iter >= c.app.cfg.Iters {
			c.finished = true
			ctx.Done()
			return cost
		}
		p := c.iter & 1
		if c.inN[p] != len(c.neighbors()) {
			return cost
		}
		c.inN[p] = 0
		bw := c.app.cfg.GridW / c.app.cfg.CharesX
		bh := c.app.cfg.GridH / c.app.cfg.CharesY
		step := float64(bw*bh) * c.app.cfg.CostPerCell
		if c.app.cfg.CostScale != nil {
			step *= c.app.cfg.CostScale(c.index)
		}
		cost += step
		c.iter++

		c.sendNext = false
		switch {
		case c.iter >= c.app.cfg.Iters:
			c.finished = true
			ctx.Done()
		case c.app.cfg.SyncEvery > 0 && c.iter%c.app.cfg.SyncEvery == 0:
			c.atSync = true
			ctx.AtSync()
		default:
			c.sendNext = true
			if c.inN[c.iter&1] == len(c.neighbors()) {
				c.stepTail(ctx)
				continue
			}
		}
		ctx.Defer(c.tail)
		return cost
	}
}

// stepTail is the last step's kernel update and, unless the step ended
// at a sync point or the run's end, the next iteration's edge sends. It
// runs before the chare's next entry, so the step's edges are still in
// their slot; it clears the slot for the iteration two ahead.
func (c *stencilChare) stepTail(ctx *charm.Ctx) {
	p := (c.iter - 1) & 1
	var g Ghosts
	for d, m := range c.in[p] {
		if m != nil {
			g[d] = m.Data
		}
	}
	c.in[p] = [numDirs]*edgeMsg{}
	c.kernel.StepGhosts(g)
	if c.sendNext {
		c.sendEdges(ctx)
	}
}

// sendEdges ships this block's boundary values for the current iteration
// in the outgoing messages of its parity.
func (c *stencilChare) sendEdges(ctx *charm.Ctx) {
	out := &c.out[c.iter&1]
	for _, d := range c.neighbors() {
		m := &out[d]
		c.kernel.Edge(d, m.Data)
		m.Iter = c.iter
		ctx.Send(c.neighborID(d), m, 8*len(m.Data)+24)
	}
}
