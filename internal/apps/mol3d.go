package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cloudlb/internal/charm"
)

// Particle is one point mass (unit mass) with position and velocity.
type Particle struct {
	ID         int
	X, Y, Z    float64
	VX, VY, VZ float64
}

// Mol3DConfig describes a classical molecular dynamics run with spatial
// cell decomposition: one chare per cell, 26-neighbor ghost exchange,
// truncated Lennard-Jones forces and leapfrog integration. A fraction of
// the particles is clustered in a Gaussian blob, so per-cell pair counts —
// and therefore loads — are strongly skewed, giving the
// application-internal imbalance the paper observes for Mol3D.
type Mol3DConfig struct {
	Array                  string
	CellsX, CellsY, CellsZ int
	// CellSize is a cell's edge length; it must be >= Cutoff so that all
	// interactions are covered by the 26-neighborhood.
	CellSize float64
	Cutoff   float64
	// Particles is the total particle count; ClusterFrac of them form a
	// Gaussian blob at the domain center, the rest are uniform.
	Particles   int
	ClusterFrac float64
	// ClusterSigmaFrac is the blob's standard deviation as a fraction of
	// the domain edge (default 0.1; larger spreads the imbalance over
	// more cells).
	ClusterSigmaFrac float64
	Seed             int64
	// Dt is the integration timestep.
	Dt float64
	// Epsilon and Sigma are the Lennard-Jones parameters.
	Epsilon, Sigma float64
	Iters          int
	SyncEvery      int
	// CostPerPair and CostPerParticle are the CPU seconds charged per
	// examined interaction pair and per integrated particle.
	CostPerPair     float64
	CostPerParticle float64
}

func (c *Mol3DConfig) withDefaults() Mol3DConfig {
	out := *c
	if out.Array == "" {
		out.Array = "mol3d"
	}
	if out.CellSize <= 0 {
		out.CellSize = 1
	}
	if out.Cutoff <= 0 {
		out.Cutoff = 0.8 * out.CellSize
	}
	if out.Cutoff > out.CellSize {
		panic("apps: cutoff must not exceed cell size")
	}
	if out.Dt <= 0 {
		out.Dt = 1e-3
	}
	if out.Epsilon <= 0 {
		out.Epsilon = 1
	}
	if out.Sigma <= 0 {
		out.Sigma = out.Cutoff / 4
	}
	if out.ClusterFrac < 0 || out.ClusterFrac > 1 {
		panic("apps: ClusterFrac must be in [0,1]")
	}
	if out.ClusterSigmaFrac <= 0 {
		out.ClusterSigmaFrac = 0.1
	}
	return out
}

// Mol3DApp wires the MD application into a runtime.
type Mol3DApp struct {
	cfg    Mol3DConfig
	lj     ljParams
	rts    *charm.RTS
	chares []*mdChare
}

// NewMol3DApp registers the cell array on the runtime. Call before
// rts.Start.
func NewMol3DApp(rts *charm.RTS, cfg Mol3DConfig) *Mol3DApp {
	c := cfg.withDefaults()
	if c.CellsX <= 0 || c.CellsY <= 0 || c.CellsZ <= 0 {
		panic("apps: invalid cell decomposition")
	}
	if c.Iters <= 0 {
		panic("apps: iterations must be positive")
	}
	app := &Mol3DApp{cfg: c, lj: newLJParams(c)}
	app.rts = rts
	n := c.CellsX * c.CellsY * c.CellsZ
	app.chares = make([]*mdChare, n)

	// Generate all particles deterministically, then bucket per cell.
	perCell := make([][]Particle, n)
	rng := rand.New(rand.NewSource(c.Seed))
	lx := float64(c.CellsX) * c.CellSize
	ly := float64(c.CellsY) * c.CellSize
	lz := float64(c.CellsZ) * c.CellSize
	nCluster := int(float64(c.Particles) * c.ClusterFrac)
	for id := 0; id < c.Particles; id++ {
		var p Particle
		p.ID = id
		if id < nCluster {
			// Gaussian blob at the center, clipped to the domain.
			sf := c.ClusterSigmaFrac
			p.X = clamp(lx/2+rng.NormFloat64()*lx*sf, 0, lx)
			p.Y = clamp(ly/2+rng.NormFloat64()*ly*sf, 0, ly)
			p.Z = clamp(lz/2+rng.NormFloat64()*lz*sf, 0, lz)
		} else {
			p.X = rng.Float64() * lx
			p.Y = rng.Float64() * ly
			p.Z = rng.Float64() * lz
		}
		p.VX = rng.NormFloat64() * 0.1
		p.VY = rng.NormFloat64() * 0.1
		p.VZ = rng.NormFloat64() * 0.1
		ci := app.cellOf(p.X, p.Y, p.Z)
		perCell[ci] = append(perCell[ci], p)
	}

	rts.NewArray(c.Array, n, func(i int) charm.Chare {
		ch := &mdChare{app: app, index: i, own: perCell[i]}
		ch.cx, ch.cy, ch.cz = app.cellCoords(i)
		ch.initExchange()
		app.chares[i] = ch
		return ch
	})
	return app
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v >= hi {
		return math.Nextafter(hi, lo)
	}
	return v
}

func (a *Mol3DApp) cellCoords(i int) (x, y, z int) {
	x = i % a.cfg.CellsX
	y = (i / a.cfg.CellsX) % a.cfg.CellsY
	z = i / (a.cfg.CellsX * a.cfg.CellsY)
	return
}

func (a *Mol3DApp) cellIndex(x, y, z int) int {
	return (z*a.cfg.CellsY+y)*a.cfg.CellsX + x
}

func (a *Mol3DApp) cellOf(x, y, z float64) int {
	cx := int(x / a.cfg.CellSize)
	cy := int(y / a.cfg.CellSize)
	cz := int(z / a.cfg.CellSize)
	cx = clampInt(cx, 0, a.cfg.CellsX-1)
	cy = clampInt(cy, 0, a.cfg.CellsY-1)
	cz = clampInt(cz, 0, a.cfg.CellsZ-1)
	return a.cellIndex(cx, cy, cz)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Particles gathers every particle in the system, sorted by ID (for tests
// and analysis after the run). Particles in transit between cells (in an
// outbox at the end of the run) belong to the system and are included;
// the departed list is excluded, as it only mirrors outbox/own entries.
func (a *Mol3DApp) Particles() []Particle {
	var all []Particle
	for _, c := range a.chares {
		all = append(all, c.own...)
		for _, out := range c.outbox {
			all = append(all, out...)
		}
	}
	slices.SortFunc(all, func(a, b Particle) int { return a.ID - b.ID })
	return all
}

// CellCount returns the number of particles currently in cell i.
func (a *Mol3DApp) CellCount(i int) int { return len(a.chares[i].own) }

// NumCells returns the number of cells.
func (a *Mol3DApp) NumCells() int { return len(a.chares) }

// Iterations returns the completed iteration count of cell i.
func (a *Mol3DApp) Iterations(i int) int { return a.chares[i].iter }

type posMsg struct {
	Iter   int
	From   int
	Ghost  []Particle
	Movers []Particle
}

// mdChare runs one cell. Its position exchange allocates nothing once the
// buffers have grown to the run's largest cell, by the same
// one-iteration window as the stencil's edge exchange (see stencilChare):
// received messages sit in a slot per iteration parity until their step,
// and each parity's outgoing messages and ghost export are rewritten two
// iterations after they were sent. Per-neighbor state is indexed by the
// neighbor's position in neighbors().
type mdChare struct {
	app        *Mol3DApp
	index      int
	cx, cy, cz int
	own        []Particle
	iter       int
	atSync     bool // between AtSync and Resume; no stepping
	// in holds the messages received for iterations of each parity;
	// inN counts each slot's messages.
	in  [2][]*posMsg
	inN [2]int
	// out and export are each parity's outgoing messages and the ghost
	// export they share.
	out    [2][]posMsg
	export [2][]Particle
	// outbox holds the particles departing to each neighbor. Sending
	// swaps a neighbor's outbox with the Movers buffer of the message
	// being rewritten, so the two trade places every other iteration.
	outbox [][]Particle
	// departed holds last integration's leavers for one more iteration:
	// while the destination cell cannot yet export them (its position
	// messages left before the handover arrived), this cell computes the
	// force they exert on its remaining particles, keeping every pair
	// counted exactly once. See computeStep.
	departed   []Particle
	fx, fy, fz []float64 // force scratch
	nbrs       []int     // cached neighbors(); the decomposition never changes
	// sendNext marks a step whose tail also sends the next iteration's
	// positions; tail is the step's deferred tail (see drainReady), bound
	// once so deferring it allocates nothing.
	sendNext bool
	tail     func(*charm.Ctx)
}

// initExchange sizes the per-neighbor exchange state.
func (c *mdChare) initExchange() {
	n := len(c.neighbors())
	in := make([]*posMsg, 2*n)
	out := make([]posMsg, 2*n)
	for p := range c.in {
		c.in[p] = in[p*n : (p+1)*n : (p+1)*n]
		c.out[p] = out[p*n : (p+1)*n : (p+1)*n]
	}
	c.outbox = make([][]Particle, n)
	c.tail = c.stepTail
}

// nbrPos returns the position of cell in neighbors().
func (c *mdChare) nbrPos(cell int) int {
	j, ok := slices.BinarySearch(c.neighbors(), cell)
	if !ok {
		panic(fmt.Sprintf("apps: cell %d is not a neighbor of cell %d", cell, c.index))
	}
	return j
}

// PackSize implements charm.Chare.
func (c *mdChare) PackSize() int { return 48*len(c.own) + 512 }

// neighbors returns the cell indices of the up-to-26 adjacent cells, in
// ascending order for determinism. The list is computed once per chare;
// it is consulted on every message and every send.
func (c *mdChare) neighbors() []int {
	if c.nbrs != nil {
		return c.nbrs
	}
	ns := make([]int, 0, 26)
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				x, y, z := c.cx+dx, c.cy+dy, c.cz+dz
				if x < 0 || x >= c.app.cfg.CellsX ||
					y < 0 || y >= c.app.cfg.CellsY ||
					z < 0 || z >= c.app.cfg.CellsZ {
					continue
				}
				ns = append(ns, c.app.cellIndex(x, y, z))
			}
		}
	}
	slices.Sort(ns)
	c.nbrs = ns
	return ns
}

// Recv implements charm.Chare.
func (c *mdChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case charm.Start, charm.Resume:
		c.atSync = false
		c.sendPositions(ctx)
		return c.drainReady(ctx)
	case *posMsg:
		p := windowSlot("posMsg", c.index, c.iter, m.Iter)
		j := c.nbrPos(m.From)
		if c.in[p][j] != nil {
			panic(fmt.Sprintf("apps: duplicate posMsg iter=%d from=%d at cell %d", m.Iter, m.From, c.index))
		}
		c.in[p][j] = m
		c.inN[p]++
		return c.drainReady(ctx)
	case charm.ReductionResult:
		return 0
	}
	panic(fmt.Sprintf("apps: md chare got unexpected message %T", data))
}

// drainReady computes as many iterations as have every neighbor's
// positions, stopping at sync points and completion, and returns their
// CPU cost. Each step's cost is a count known before its arithmetic (see
// stepCost), so the arithmetic and the sends that read it are the step's
// tail, deferred to the kernel worker when the entry ends with it. A step
// the entry goes on past runs its tail here: the next step's cost reads
// the cell it leaves.
func (c *mdChare) drainReady(ctx *charm.Ctx) float64 {
	cost := 0.0
	for {
		if c.atSync || c.iter >= c.app.cfg.Iters {
			return cost
		}
		p := c.iter & 1
		if c.inN[p] != len(c.neighbors()) {
			return cost
		}
		cost += c.stepCost(c.in[p])
		c.inN[p] = 0
		c.iter++

		c.sendNext = false
		switch {
		case c.iter == c.app.cfg.Iters:
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

// stepCost is the CPU cost of the step over in, this iteration's message
// from each neighbor: the pairs computeStep examines and the particles it
// integrates, counted before any arithmetic. Each sender exports every
// mover exactly once, so a message holds len(Ghost) − len(Movers) ghosts
// that are not adopted here.
func (c *mdChare) stepCost(in []*posMsg) float64 {
	n, ghosts := len(c.own), 0
	for _, m := range in {
		n += len(m.Movers)
		ghosts += len(m.Ghost) - len(m.Movers)
	}
	pairs := n*(n-1)/2 + n*(ghosts+len(c.departed))
	return float64(pairs)*c.app.cfg.CostPerPair + float64(n)*c.app.cfg.CostPerParticle
}

// stepTail is the last step's arithmetic and, unless the step ended at a
// sync point or the run's end, the next iteration's position sends. It
// runs before the cell's next entry, so the step's messages are still in
// their slot; it clears the slot for the iteration two ahead.
func (c *mdChare) stepTail(ctx *charm.Ctx) {
	in := c.in[(c.iter-1)&1]
	c.computeStep(in)
	clear(in)
	if c.sendNext {
		c.sendPositions(ctx)
	}
}

// computeStep adopts inbound movers, evaluates forces against own, ghost
// and recently-departed particles, integrates, and sorts departures into
// the outbox. in holds this iteration's message from each neighbor, in
// neighbors() order; stepCost counts its work.
//
// Pair coverage invariant: every particle pair within the cutoff is
// evaluated exactly once per side per iteration. Adopted movers also
// appear in their origin cell's ghost export (the origin cannot retract a
// message already composed), so ghosts duplicated by adoption are skipped
// by ID; conversely the origin keeps its leavers on a one-iteration
// departed list and computes their force on its remaining particles,
// because the destination's exports for this iteration predate the
// handover. This requires a skin: particles may penetrate at most
// CellSize - Cutoff into the next cell per step, which is asserted below.
func (c *mdChare) computeStep(in []*posMsg) {
	cfg := &c.app.cfg
	lj := &c.app.lj
	// Adopt movers in deterministic neighbor order; the own-ghost loop
	// below skips the same particles in each sender's ghost list.
	for _, m := range in {
		c.own = append(c.own, m.Movers...)
	}
	own := c.own
	n := len(own)
	c.fx = resize(c.fx, n)
	c.fy = resize(c.fy, n)
	c.fz = resize(c.fz, n)

	// Own-own pairs, Newton's third law applied.
	lj.addPairForces(c.fx, c.fy, c.fz, own)
	// Own-ghost pairs, one-sided (the neighbor computes its own side).
	for _, m := range in {
		for k := range m.Ghost {
			g := &m.Ghost[k]
			if moved(m.Movers, g.ID) {
				continue
			}
			lj.addForces(c.fx, c.fy, c.fz, own, g)
		}
	}
	// Recently-departed particles: their new owner cannot export them yet,
	// so this cell supplies the force they exert on its remaining
	// particles (the owner computes the mirror side from our ghost).
	for k := range c.departed {
		lj.addForces(c.fx, c.fy, c.fz, own, &c.departed[k])
	}
	c.departed = c.departed[:0]

	// Leapfrog with reflecting walls.
	lx := float64(cfg.CellsX) * cfg.CellSize
	ly := float64(cfg.CellsY) * cfg.CellSize
	lz := float64(cfg.CellsZ) * cfg.CellSize
	for i := range c.own {
		p := &c.own[i]
		p.VX += c.fx[i] * cfg.Dt
		p.VY += c.fy[i] * cfg.Dt
		p.VZ += c.fz[i] * cfg.Dt
		p.X += p.VX * cfg.Dt
		p.Y += p.VY * cfg.Dt
		p.Z += p.VZ * cfg.Dt
		reflect(&p.X, &p.VX, lx)
		reflect(&p.Y, &p.VY, ly)
		reflect(&p.Z, &p.VZ, lz)
	}

	// Sort departures into the outbox for the next exchange.
	skin := cfg.CellSize - cfg.Cutoff
	kept := c.own[:0]
	for _, p := range c.own {
		dest := c.app.cellOf(p.X, p.Y, p.Z)
		if dest == c.index {
			kept = append(kept, p)
			continue
		}
		dx, dy, dz := c.app.cellCoords(dest)
		if abs(dx-c.cx) > 1 || abs(dy-c.cy) > 1 || abs(dz-c.cz) > 1 {
			panic(fmt.Sprintf("apps: particle %d crossed more than one cell per step (dt too large)", p.ID))
		}
		if d := c.penetration(p); d > skin+1e-12 {
			panic(fmt.Sprintf("apps: particle %d penetrated %.4g past its cell, beyond the %.4g skin (reduce dt or cutoff)", p.ID, d, skin))
		}
		j := c.nbrPos(dest)
		c.outbox[j] = append(c.outbox[j], p)
		c.departed = append(c.departed, p)
	}
	c.own = kept
}

// moved reports whether particle id is among a sender's movers.
func moved(movers []Particle, id int) bool {
	for k := range movers {
		if movers[k].ID == id {
			return true
		}
	}
	return false
}

// penetration reports how far a particle sits outside this cell's box.
func (c *mdChare) penetration(p Particle) float64 {
	cs := c.app.cfg.CellSize
	d := 0.0
	for _, a := range [3]struct{ v, lo float64 }{
		{p.X, float64(c.cx) * cs},
		{p.Y, float64(c.cy) * cs},
		{p.Z, float64(c.cz) * cs},
	} {
		if under := a.lo - a.v; under > d {
			d = under
		}
		if over := a.v - (a.lo + cs); over > d {
			d = over
		}
	}
	return d
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func reflect(x, v *float64, l float64) {
	if *x < 0 {
		*x = -*x
		*v = -*v
	}
	if *x >= l {
		*x = 2*l - *x
		*v = -*v
	}
	// A second pass handles the (diagnostic-only) case of overshooting
	// past both walls in one step.
	if *x < 0 || *x >= l {
		*x = clamp(*x, 0, l)
	}
}

// ljParams are a run's Lennard-Jones constants, truncated at the cutoff
// and softened at very short range to keep random initial conditions
// stable.
type ljParams struct {
	rc2    float64 // cutoff radius squared
	sigma2 float64 // σ²
	minR2  float64 // softening radius squared, (0.8σ)²
	eps24  float64 // 24ε
}

func newLJParams(c Mol3DConfig) ljParams {
	sigma := c.Sigma
	return ljParams{
		rc2:    c.Cutoff * c.Cutoff,
		sigma2: sigma * sigma,
		minR2:  0.64 * sigma * sigma,
		eps24:  24 * c.Epsilon,
	}
}

// The pair loops below read particles in place and test the cutoff
// before any force arithmetic: most pairs a cell examines lie beyond it.

// addPairForces adds to fx, fy, fz the Lennard-Jones forces the particles
// of own exert on each other, evaluating each pair once and applying
// Newton's third law.
func (lj *ljParams) addPairForces(fx, fy, fz []float64, own []Particle) {
	n := len(own)
	fx, fy, fz = fx[:n], fy[:n], fz[:n]
	for i := range own {
		a := &own[i]
		for j := i + 1; j < n; j++ {
			b := &own[j]
			dx := a.X - b.X
			dy := a.Y - b.Y
			dz := a.Z - b.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= lj.rc2 || r2 == 0 {
				continue
			}
			f := lj.scale(r2)
			gx, gy, gz := f*dx, f*dy, f*dz
			fx[i] += gx
			fy[i] += gy
			fz[i] += gz
			fx[j] -= gx
			fy[j] -= gy
			fz[j] -= gz
		}
	}
}

// addForces adds to fx, fy, fz the Lennard-Jones force b exerts on each
// particle of own.
func (lj *ljParams) addForces(fx, fy, fz []float64, own []Particle, b *Particle) {
	n := len(own)
	fx, fy, fz = fx[:n], fy[:n], fz[:n]
	for i := range own {
		a := &own[i]
		dx := a.X - b.X
		dy := a.Y - b.Y
		dz := a.Z - b.Z
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= lj.rc2 || r2 == 0 {
			continue
		}
		f := lj.scale(r2)
		fx[i] += f * dx
		fy[i] += f * dy
		fz[i] += f * dz
	}
}

// scale is the force of a pair at squared distance r2 inside the cutoff,
// divided by their distance: softened to the force at 0.8σ below that.
func (lj *ljParams) scale(r2 float64) float64 {
	if r2 < lj.minR2 {
		r2 = lj.minR2
	}
	s2 := lj.sigma2 / r2
	s6 := s2 * s2 * s2
	return lj.eps24 * (2*s6*s6 - s6) / r2
}

// sendPositions ships ghost positions and departing particles for the
// current iteration to every neighbor, in the outgoing messages of its
// parity. The ghost export includes the outbox (see computeStep's pair
// coverage invariant): a departing particle remains visible to every
// neighbor via its origin for one iteration.
func (c *mdChare) sendPositions(ctx *charm.Ctx) {
	p := c.iter & 1
	export := append(c.export[p][:0], c.own...)
	for _, out := range c.outbox {
		export = append(export, out...)
	}
	slices.SortFunc(export, func(a, b Particle) int { return a.ID - b.ID })
	c.export[p] = export
	for j, ni := range c.neighbors() {
		m := &c.out[p][j]
		m.Iter, m.From, m.Ghost = c.iter, c.index, export
		m.Movers, c.outbox[j] = c.outbox[j], m.Movers[:0]
		bytes := 24*len(export) + 48*len(m.Movers) + 32
		ctx.Send(charm.ChareID{Array: c.app.cfg.Array, Index: ni}, m, bytes)
	}
}
