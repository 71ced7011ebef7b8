package charm

import (
	"fmt"
	"slices"

	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// pe is one processing element: a worker thread pinned to a core, a message
// queue, the chares living there, and the load database for the interval
// since the last LB step.
type pe struct {
	rts   *RTS
	index int
	core  *machine.Core
	// eng owns this PE's events — the core's shard engine under a sharded
	// scheduler, the single machine engine otherwise. Every time read on a
	// PE execution path goes through it; reading another shard's clock
	// mid-window would return a ragged time.
	eng    *sim.Engine
	shard  int
	thread *machine.Thread

	// roster holds the records of the chares resident here in (Array,
	// Index) order, maintained incrementally on install/uninstall. Every
	// deterministic iteration over a PE's chares (Start, stats gather,
	// resume, evacuation, reduction delivery) walks this slice — the
	// committed figures depend on exactly this order.
	roster []*chareRec
	// active counts the resident chares that have not called Done: the
	// ones still taking part in AtSync.
	active int

	// appQ[appHead:] is the application queue. A pop advances appHead, so
	// dequeueing is O(1) at any depth; enqueueApp slides the live entries
	// back to the front only when the backing array is full.
	appQ    []appDelivery
	appHead int
	sysQ    []func()

	running bool // an entry method (or pack/unpack burst) is in flight
	// applying is set while afterEntry applies an entry's effects: they
	// are read from the PE's one Ctx, so the pump starts nothing until
	// they are applied (see afterEntry).
	applying bool

	// In-flight entry state, valid while running. Kept on the PE (entries
	// are strictly sequential per PE) so completion needs no per-entry
	// closure; entryDone is the method value bound once at construction.
	cur       *chareRec
	curStart  sim.Time
	ctx       Ctx
	entryDone func()
	// task holds the in-flight entry's deferred tail (Ctx.Defer) for the
	// kernel worker, nil without one; onEntryDone joins it.
	task *kernelTask

	// Elasticity state. A retired PE executes no application work; its
	// core is offline (or about to be) until RestorePE. evacIn counts the
	// evacuees shipped here and not yet installed: the PE does not enter
	// sync while one is inbound (see allSynced).
	retired     bool
	wentOffline bool
	offlineAt   sim.Time
	evacIn      int

	// Load database for the current LB interval; the per-chare wall times
	// live in the resident chares' records.
	intervalAt sim.Time // start of the interval (last resume)
	idleAtLB   sim.Time // core idle reading at interval start

	// AtSync state. seqHeld marks the unit of sequential demand markInSync
	// raised and stepDone (or, failing that, exitSync) releases. lbWall
	// sums this PE's sync-to-resume spans (see RTS.LBWallTime). resumed
	// counts the LB steps this PE has resumed from: a sync mark naming
	// step resumed or earlier names a step that has ended here.
	resumed   int32
	inSync    bool
	seqHeld   bool
	syncAt    sim.Time
	lbWall    sim.Time
	orderSeen bool
	expectIn  int
	arrivedIn int
	sentStats bool
	doneSent  bool

	// Per-step scratch, reused across LB steps so the steady state
	// allocates nothing: the measured task records shipped to the master
	// and the outbound shipment manifest.
	tasksScratch []core.Task
	shipScratch  []shipment

	// PE-local reduction accumulators and subtree-size memos (valid
	// between LB steps; placements only change inside them).
	reds             map[redKey]*redAcc
	subtreeMemo      map[string]int
	subtreeTotalMemo int

	// Hierarchical LB protocol state (Config.HierarchicalLB).
	hier hierState

	// Distributed LB protocol state (Config.Strategy implementing
	// core.DistributedStrategy).
	diff diffState
}

type appDelivery struct {
	to   *chareRec
	data interface{}
}

func newPE(r *RTS, index int, c *machine.Core) *pe {
	p := &pe{
		rts:   r,
		index: index,
		core:  c,
		eng:   r.cfg.Machine.EngineFor(c.ID),
		shard: r.cfg.Machine.ShardOf(c.ID),
	}
	p.thread = r.cfg.Machine.NewThread(fmt.Sprintf("%s/pe%d", r.name, index), c, r.cfg.ThreadWeight)
	p.entryDone = p.onEntryDone
	if r.cfg.Kernels != nil {
		p.task = new(kernelTask)
	}
	p.subtreeTotalMemo = -1
	p.hierReset()
	return p
}

// install makes this PE the chare's host and adds it to the roster.
func (p *pe) install(rec *chareRec) {
	if rec.host >= 0 {
		panic(fmt.Sprintf("charm: chare %v already on PE %d", rec.id, rec.host))
	}
	rec.host = p.index
	// The communication row counts bytes sent from the current host, so an
	// arrival starts without one.
	rec.comm = rec.comm[:0]
	if !rec.done {
		p.active++
	}
	at, _ := slices.BinarySearchFunc(p.roster, rec, byID)
	p.roster = slices.Insert(p.roster, at, rec)
}

// uninstall removes a chare from the roster, leaving it in transit (host
// -1) until a PE installs it again. It panics if the chare is not here —
// callers own that check when they want a more specific message.
func (p *pe) uninstall(rec *chareRec) {
	if rec.host != p.index {
		panic(fmt.Sprintf("charm: chare %v not on PE %d", rec.id, p.index))
	}
	at, found := slices.BinarySearchFunc(p.roster, rec, byID)
	if !found {
		panic(fmt.Sprintf("charm: roster out of sync with chare records on PE %d", p.index))
	}
	p.roster = slices.Delete(p.roster, at, at+1)
	rec.host = -1
	if !rec.done {
		p.active--
	}
}

// resetLoadDB restarts load measurement from the current instant. Split
// from beginInterval so RestorePE can reset measurement on the new core
// without touching in-flight LB protocol flags.
func (p *pe) resetLoadDB() {
	for _, rec := range p.roster {
		rec.wall = 0
	}
	p.intervalAt = p.eng.Now()
	_, idle := p.core.ProcStat()
	p.idleAtLB = idle
}

// markInSync flips this PE into the synchronized state. It also raises one
// unit of sequential demand: from the next event on this shard (and the
// next barrier globally) until the step's placements are final, the
// coordinator executes everything merged, because the LB step's
// master-side handlers read state on every shard. stepDone releases it.
func (p *pe) markInSync() {
	p.inSync = true
	p.syncAt = p.eng.Now()
	p.seqHeld = true
	p.rts.sh.RequireSequential()
}

// exitSync leaves the synchronized state as the PE resumes. stepDone has
// already released the PE's unit of sequential demand and re-primed the
// reduction memos; a unit still held here is released, so no path can
// leave the run merged for good.
func (p *pe) exitSync() {
	p.inSync = false
	if p.seqHeld {
		p.seqHeld = false
		p.rts.sh.ReleaseSequential()
	}
}

// beginInterval resets the load database and the resident chares'
// communication rows at the start of an LB interval. Sync marks stay:
// onResume has cleared every mark naming a step that has ended here, and
// a mark naming a later step still holds its chare.
func (p *pe) beginInterval() {
	p.resetLoadDB()
	for _, rec := range p.roster {
		rec.comm = rec.comm[:0]
	}
	p.exitSync()
	p.orderSeen = false
	p.expectIn = 0
	p.arrivedIn = 0
	p.sentStats = false
	p.doneSent = false
	p.hierReset()
	p.diffReset()
}

// appQueued reports how many application deliveries wait in the queue.
func (p *pe) appQueued() int { return len(p.appQ) - p.appHead }

func (p *pe) enqueueApp(to *chareRec, data interface{}) {
	if n := len(p.appQ); n == cap(p.appQ) && p.appHead > 0 && 2*p.appHead >= n {
		// Full with at least half of it consumed: compact in place rather
		// than grow. Compacting only then keeps both amortized O(1).
		live := copy(p.appQ, p.appQ[p.appHead:])
		clear(p.appQ[live:])
		p.appQ, p.appHead = p.appQ[:live], 0
	}
	p.appQ = append(p.appQ, appDelivery{to: to, data: data})
}

func (p *pe) enqueueSys(fn func()) {
	p.sysQ = append(p.sysQ, fn)
	p.pump()
}

// holds reports whether deliveries to a chare must wait for its Resume:
// it is resident on this PE and has called AtSync. The host test comes
// first, so a PE never reads the sync mark of a chare another PE owns.
func (p *pe) holds(rec *chareRec) bool { return rec.host == p.index && rec.synced }

// pump drives the PE scheduler: system work first (it only exists during
// LB phases, when application traffic is quiesced), then one application
// entry at a time.
//
// Deliveries addressed to a chare that has called AtSync are held back
// until its Resume arrives — a chare must not execute past its load
// balancing point (doing so would, e.g., make a stencil chare re-send
// its post-sync ghost edges after Resume). Held messages keep their
// relative order.
func (p *pe) pump() {
	if p.applying {
		return
	}
	for !p.running && len(p.sysQ) > 0 {
		fn := p.sysQ[0]
		p.sysQ = p.sysQ[1:]
		fn()
	}
	if p.running || p.inSync || p.retired || p.appQueued() == 0 {
		return
	}
	q := p.appQ[p.appHead:]
	idx := -1
	for i := range q {
		if _, isResume := q[i].data.(Resume); isResume || !p.holds(q[i].to) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	d := q[idx]
	// Slide the held deliveries ahead of idx (usually none) one slot back
	// and drop the vacated front slot, keeping their order.
	copy(q[1:idx+1], q[:idx])
	q[0] = appDelivery{}
	p.appHead++
	if p.appHead == len(p.appQ) {
		p.appQ, p.appHead = p.appQ[:0], 0
	}
	if _, isResume := d.data.(Resume); isResume && d.to.host == p.index {
		d.to.synced = false
	}
	p.execute(d)
}

// execute runs one entry method: the handler computes eagerly, then the
// PE's thread contends for the core for the reported CPU cost; sends and
// state transitions take effect when the burst completes. The Ctx and the
// completion callback are both reused across entries (one entry per PE at
// a time), so steady-state execution allocates nothing.
func (p *pe) execute(d appDelivery) {
	rec := d.to
	if rec.host != p.index {
		// The chare moved while this delivery sat in the queue (across an
		// LB step or an evacuation); forward it.
		p.rts.send(p.index, rec, d.data, 64)
		p.pump()
		return
	}
	p.running = true
	p.cur = rec
	p.curStart = p.eng.Now()
	ctx := &p.ctx
	ctx.rts, ctx.pe, ctx.self = p.rts, p, rec
	ctx.sends = ctx.sends[:0]
	ctx.contribs = ctx.contribs[:0]
	ctx.atSync, ctx.done = false, false
	cost := rec.obj.Recv(ctx, d.data)
	if cost < 0 {
		panic(fmt.Sprintf("charm: chare %v returned negative cost %v", rec.id, cost))
	}
	cost += msgOverheadCPU
	p.thread.Run(cost, p.entryDone)
}

// onEntryDone fires when the in-flight entry's CPU burst has been served,
// or at once when a revocation forces it complete (FinishNow). It joins
// the entry's deferred tail first: the effects below read what it wrote.
func (p *pe) onEntryDone() {
	if t := p.task; t != nil && t.state.Load() != taskIdle {
		p.rts.cfg.Kernels.join(t)
	}
	now := p.eng.Now()
	p.running = false
	p.cur.wall += float64(now - p.curStart)
	if rec := p.rts.cfg.Trace; rec != nil {
		kind := trace.KindTask
		if p.rts.cfg.TraceAsBackground {
			kind = trace.KindBackground
		}
		rec.Add(trace.Segment{
			Core: p.core.ID, Start: p.curStart, End: now,
			Kind: kind, Label: p.cur.id.String(),
		})
	}
	p.afterEntry(&p.ctx)
	p.pump()
}

// afterEntry applies the effects an entry method produced: outgoing
// messages, reduction contributions, completion, and AtSync. Each send
// resolves its destination's record once; the envelope carries it from
// there on. A contribution that completes a reduction at the root
// delivers the result to this PE at once, and the pump must not start
// work before the effects are applied: the next entry would reuse the Ctx
// they are read from. onEntryDone's pump runs it right after.
func (p *pe) afterEntry(ctx *Ctx) {
	r := p.rts
	p.applying = true
	for _, m := range ctx.sends {
		to := r.record(m.to)
		if to == nil {
			panic(fmt.Sprintf("charm: send to unknown chare %v", m.to))
		}
		if r.dist != nil {
			p.diffTrackComm(ctx.self, to, m.bytes)
		}
		r.send(p.index, to, m.data, m.bytes)
	}
	for _, c := range ctx.contribs {
		p.contribute(ctx.self.id, c)
	}
	if ctx.done {
		r.chareDone(p, ctx.self)
	}
	if ctx.atSync {
		self := ctx.self
		if self.synced {
			panic(fmt.Sprintf("charm: chare %v called AtSync twice in one interval", self.id))
		}
		self.synced = true
		self.syncs++
		p.maybeEnterSync(self)
	}
	p.applying = false
}

// runBurst charges a CPU burst (e.g. pack/unpack work) to the PE thread
// and then continues. It shares the running flag with entry execution.
func (p *pe) runBurst(cpu float64, then func()) {
	if p.running {
		panic("charm: burst while entry in flight")
	}
	p.running = true
	p.thread.Run(cpu, func() {
		p.running = false
		then()
		p.pump()
	})
}
