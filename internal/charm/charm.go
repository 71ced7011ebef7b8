// Package charm is a message-driven migratable-object runtime in the style
// of Charm++, running on the simulated cluster of internal/machine.
//
// Applications over-decompose into chares: objects with state and a Recv
// entry method. The runtime maps chares onto processing elements (PEs) —
// one worker thread pinned to each core the runtime owns — and schedules
// one entry method at a time per PE. Entry methods report the CPU they
// consume; the PE's thread then contends for the core against whatever
// else the machine runs there (interfering jobs included), so the wall
// time of an entry silently includes stolen CPU, exactly as the paper's
// Projections measurements do.
//
// Chares periodically call AtSync; when every chare has synced, the
// runtime gathers the per-task wall times and the per-core background
// loads (Eq. 2: O_p = T_lb − Σt_i − t_idle, with t_idle read from the
// simulated /proc/stat) to PE 0, runs the configured strategy, migrates
// objects over the interconnect, and resumes. Migration and LB messaging
// costs land in application wall-clock time.
package charm

import (
	"fmt"
	"slices"

	"cloudlb/internal/core"
	"cloudlb/internal/machine"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// ChareID identifies a chare; it doubles as the load balancer's TaskID.
type ChareID = core.TaskID

// Chare is a migratable object. Implementations hold application state.
type Chare interface {
	// Recv handles one message and returns the CPU-seconds the entry
	// method consumes. The runtime runs application logic eagerly but
	// charges the returned cost to the PE's thread before any message
	// sent from this entry leaves the PE.
	//
	// Recv may hand the entry's numeric tail to Ctx.Defer. The deferred
	// function touches only this chare's state and the payloads delivered
	// to it, calls only Ctx.Send, and never reads a clock; the runtime
	// joins it when the burst completes, before it applies the entry's
	// effects, so the chare's next entry, a migration or evacuation pack
	// and every reader after the run see the work done.
	Recv(ctx *Ctx, data interface{}) float64
	// PackSize returns the object's serialized size in bytes, charged
	// when the load balancer migrates it.
	PackSize() int
}

// Built-in messages the runtime delivers to chares.
type (
	// Start is delivered to every chare when the runtime starts.
	Start struct{}
	// Resume is delivered to every chare after a load balancing step.
	Resume struct{}
	// ReductionResult delivers a completed reduction to every chare of
	// the contributing array.
	ReductionResult struct {
		Tag   string
		Value float64
	}
)

// Placement selects the initial chare-to-PE mapping.
type Placement int

// Placement policies.
const (
	// PlaceBlock assigns contiguous index ranges to PEs (the default;
	// preserves neighbor locality for stencils).
	PlaceBlock Placement = iota
	// PlaceHash scatters indices by a multiplicative hash, decorrelating
	// placement from any spatial structure of the index space (useful
	// for irregular work whose heavy elements are spatially clustered).
	PlaceHash
)

// hashPlace maps a chare index to a PE pseudo-randomly but evenly: the
// index is hashed for ordering, and ranks are dealt round-robin so PE
// populations differ by at most one.
func hashPlace(n, p int) []int {
	type hi struct {
		h uint32
		i int
	}
	hs := make([]hi, n)
	for i := 0; i < n; i++ {
		x := uint32(i+1) * 2654435761
		x ^= x >> 16
		x *= 2246822519
		x ^= x >> 13
		hs[i] = hi{x, i}
	}
	slices.SortFunc(hs, func(a, b hi) int {
		if a.h != b.h {
			if a.h < b.h {
				return -1
			}
			return 1
		}
		return a.i - b.i
	})
	out := make([]int, n)
	for rank, e := range hs {
		out[e.i] = rank % p
	}
	return out
}

// Config configures a runtime instance. Multiple instances can share one
// machine (the paper's background job is simply a second instance pinned
// to two cores).
type Config struct {
	Machine *machine.Machine
	Net     *xnet.Network
	// Cores lists the global core IDs this runtime owns; PE i runs on
	// Cores[i].
	Cores []int
	// Strategy plans migrations at LB steps; nil means no load balancing
	// (AtSync still synchronizes, so noLB and LB runs see identical
	// barrier structure, as in the paper's methodology).
	Strategy core.Strategy
	// Placement is the initial mapping policy.
	Placement Placement
	// Trace, when non-nil, records per-core timeline segments.
	Trace *trace.Recorder
	// TraceAsBackground records this runtime's entries as background
	// segments — used for interfering jobs so timelines match the
	// paper's figures.
	TraceAsBackground bool
	// ThreadWeight is the OS scheduling weight of PE worker threads
	// (default 1).
	ThreadWeight float64
	// HierarchicalLB routes load balancing statistics, orders and
	// completion up and down the reduction tree instead of a flat
	// gather at PE 0 — the communication shape of Charm++'s
	// hierarchical balancers.
	HierarchicalLB bool
	// Name tags this runtime instance in traces and metric labels.
	Name string
	// Metrics, when non-nil, receives this runtime's telemetry series
	// (messages, AtSync barriers, LB steps, per-PE Eq. 2 measurements)
	// and one step-log row per LB step (moves planned/applied, strategy
	// wall time, per-PE loads before/after), all labeled rts=Name. Nil
	// disables instrumentation at zero cost.
	Metrics *metrics.Registry
	// Obs, when non-nil, is the job trace this runtime records LB-step
	// spans on (host wall time around Strategy.Plan, row ObsTID). Nil
	// disables tracing at zero cost.
	Obs *obs.Trace
	// ObsTID is the trace row (Chrome thread ID) for this runtime's spans.
	ObsTID int
	// Kernels, when non-nil, runs the entries' deferred tails (Ctx.Defer)
	// beside the event thread; several runtimes of one scenario may share
	// it. It requires a one-shard scheduler: the event thread is its only
	// producer. Nil runs every tail inline, where Defer is called.
	Kernels *KernelWorker
}

// The runtime's fixed costs and shapes.
const (
	// msgOverheadCPU is the scheduler's per-entry CPU overhead in seconds.
	msgOverheadCPU = 2e-6
	// packCPUPerByte is the CPU cost to serialize or deserialize one byte
	// of a migrating object (~5 GB/s memcpy).
	packCPUPerByte = 2e-10
	// statsBytesPerTask sizes one task record of an LB stats message.
	statsBytesPerTask = 24
	// reductionArity is the fan-in of the reduction spanning tree.
	reductionArity = 4
	// faultDetectionDelay is how long a hard-killed core's disappearance
	// goes unnoticed before the runtime evacuates its chares, a typical
	// heartbeat timeout. Revocations with advance warning evacuate eagerly.
	faultDetectionDelay sim.Duration = 0.05
)

// RTS is a runtime instance.
type RTS struct {
	cfg Config
	// arity and detectDelay are reductionArity and faultDetectionDelay;
	// tests set other values before Start.
	arity       int
	detectDelay sim.Duration

	eng *sim.Engine
	// sh is the scheduler driving the machine. Every PE's events run on
	// its core's shard engine, and the runtime splits its hot-path mutable
	// state (message pools, Done marks) per shard so parallel windows never
	// contend; an LB step raises sequential demand from a PE's sync until
	// its placements are final (stepDone), so the step's cross-shard
	// handlers only ever run merged on the coordinator.
	sh   *sim.Shards
	pes  []*pe
	name string

	// arrays holds each chare array's record table, in creation order.
	// The records are the runtime's only per-chare state (see chareRec).
	arrays []*chareArray

	started  bool
	total    int // total chares
	done     int // Done calls so far
	finished bool
	finishAt sim.Time
	onDone   func()

	// onLBStep, when set, runs as each LB step completes — every migrant
	// installed, the resume wave not yet started. Tests hang invariant
	// checks on it.
	onLBStep func()

	lb lbState

	// Distributed LB wiring: dist is the DistributedStrategy view of
	// cfg.Strategy (nil when the strategy plans centrally) and distNbr
	// caches every PE's topology neighbor list.
	dist    core.DistributedStrategy
	distNbr [][]int

	// Counters exposed for experiments.
	lbSteps    int
	migrations int

	// Elasticity state: revocations/restores deferred past an in-flight
	// LB step, and the emergency-evacuation counter.
	pendingElastic []func()
	evacuations    int

	// msgFree recycles application message envelopes (see appMsg), one
	// pool per shard: each envelope carries its delivery closure with it,
	// so the steady-state send path schedules network and engine events
	// without allocating. Envelopes are taken from the sending shard's
	// pool and released into the delivering shard's, keeping every pool
	// single-writer within a window.
	msgFree []msgPool

	// shardDone is the per-shard Done accounting: a chare marks its own
	// record (its host's shard owns it) and counts the call shard-locally
	// mid-window; the coordinator's barrier hook folds the counts into
	// done, firing onDone with the exact virtual finish time. With one
	// shard its count is the global one and folds at once.
	shardDone []shardDoneState

	// outsScratch/insScratch are the per-PE migration-order buffers
	// planMoves fills each LB step, reused across steps.
	outsScratch [][]core.Move
	insScratch  []int

	// childrenMemo caches the reduction tree's child lists per PE (the
	// tree shape is fixed at construction).
	childrenMemo [][]int

	// met holds the telemetry handles; its zero value is all no-ops, so
	// hot paths update it unconditionally (see rtsMetrics).
	met rtsMetrics
}

// chareRec is the runtime's one record per chare. It lives in its array's
// dense table for the runtime's lifetime, so a *chareRec stays valid
// across migrations: the message path resolves a ChareID once at send and
// carries the record from there on, hashing nothing.
type chareRec struct {
	id  ChareID
	obj Chare
	// loc is the location table entry: the PE messages are routed to.
	// Migrations only change it while the whole runtime is quiesced inside
	// an LB step (or pinned sequential by an evacuation), so a read at send
	// time is equivalent to the per-PE tables of a real distributed
	// location manager; the cost of propagating updates is still paid by
	// the resume broadcast.
	loc int
	// host is the PE whose roster holds the object, -1 while it travels
	// between PEs. It trails loc during a move.
	host int
	// wall is the load database entry: the chare's entry wall time in the
	// current LB interval.
	wall float64
	// synced marks a chare that called AtSync and has not resumed; the
	// mark names step syncs, the count of its AtSync calls (its k-th call
	// syncs into step k; an int32 fits beside the bools, keeping the
	// record at 96 bytes). done marks one that called Done: it no longer
	// takes part in AtSync (it will never sync again) but remains a
	// migratable object.
	synced, done bool
	syncs        int32
	// comm is the distributed planner's affinity input: the bytes this
	// chare sent to each topology neighbor of its host over the interval,
	// empty until it sends one.
	comm []float64
}

// chareArray is one chare array: its name and its record table, indexed
// by element index.
type chareArray struct {
	name string
	recs []chareRec
}

// byID orders records by chare ID, the roster order.
func byID(a, b *chareRec) int { return a.id.Compare(b.id) }

// msgPool is one shard's free list of message envelopes. The pad keeps
// adjacent shards' pools off each other's cache lines: newAppMsg and
// deliver hit a pool once per message.
type msgPool struct {
	free []*appMsg
	_    [40]byte
}

// shardDoneState holds one shard's not-yet-consolidated Done calls.
type shardDoneState struct {
	count  int
	lastAt sim.Time
}

// NewRTS validates the configuration and builds the PEs.
func NewRTS(cfg Config) *RTS {
	if cfg.Machine == nil || cfg.Net == nil {
		panic("charm: Machine and Net are required")
	}
	if len(cfg.Cores) == 0 {
		panic("charm: at least one core required")
	}
	if cfg.ThreadWeight <= 0 {
		cfg.ThreadWeight = 1
	}
	if cfg.Name == "" {
		cfg.Name = "rts"
	}
	r := &RTS{
		cfg:         cfg,
		arity:       reductionArity,
		detectDelay: faultDetectionDelay,
		eng:         cfg.Machine.Engine(),
		sh:          cfg.Machine.Shards(),
		name:        cfg.Name,
	}
	for i, c := range cfg.Cores {
		r.pes = append(r.pes, newPE(r, i, cfg.Machine.Core(c)))
	}
	shards := r.sh.NumShards()
	if cfg.Kernels != nil && shards > 1 {
		panic("charm: a kernel worker needs a one-shard scheduler")
	}
	r.msgFree = make([]msgPool, shards)
	r.shardDone = make([]shardDoneState, shards)
	r.sh.OnBarrier(r.consolidate)
	r.outsScratch = make([][]core.Move, len(r.pes))
	r.insScratch = make([]int, len(r.pes))
	r.childrenMemo = make([][]int, len(r.pes))
	if ds, ok := cfg.Strategy.(core.DistributedStrategy); ok {
		if cfg.HierarchicalLB {
			panic("charm: a DistributedStrategy plans in place of the gather; HierarchicalLB does not apply")
		}
		r.dist = ds
		r.distNbr = make([][]int, len(r.pes))
		for i := range r.pes {
			nbr := ds.Neighbors(i, len(r.pes))
			for _, q := range nbr {
				if q < 0 || q >= len(r.pes) || q == i {
					panic(fmt.Sprintf("charm: strategy lists invalid neighbor %d for PE %d", q, i))
				}
			}
			r.distNbr[i] = nbr
		}
	}
	r.met = newRTSMetrics(cfg.Metrics, cfg.Name, len(r.pes))
	return r
}

// Engine returns the simulation engine driving this runtime.
func (r *RTS) Engine() *sim.Engine { return r.eng }

// NumPEs returns how many PEs (cores) the runtime owns.
func (r *RTS) NumPEs() int { return len(r.pes) }

// CoreOf maps a PE index to its global core ID.
func (r *RTS) CoreOf(peIdx int) int { return r.pes[peIdx].core.ID }

// NewArray creates a chare array and places its elements. It must be
// called before Start.
func (r *RTS) NewArray(name string, n int, factory func(idx int) Chare) {
	if r.started {
		panic("charm: NewArray after Start")
	}
	if r.array(name) != nil {
		panic(fmt.Sprintf("charm: duplicate array %q", name))
	}
	if n <= 0 {
		panic("charm: array size must be positive")
	}
	a := &chareArray{name: name, recs: make([]chareRec, n)}
	r.arrays = append(r.arrays, a)
	p := len(r.pes)
	var hashed []int
	if r.cfg.Placement == PlaceHash {
		hashed = hashPlace(n, p)
	}
	for i := range a.recs {
		peIdx := i * p / n
		if hashed != nil {
			peIdx = hashed[i]
		}
		rec := &a.recs[i]
		*rec = chareRec{id: ChareID{Array: name, Index: i}, obj: factory(i), loc: peIdx, host: -1}
		r.pes[peIdx].install(rec)
	}
	r.total += n
}

// ArraySize returns the number of elements in an array.
func (r *RTS) ArraySize(name string) int {
	a := r.array(name)
	if a == nil {
		panic(fmt.Sprintf("charm: unknown array %q", name))
	}
	return len(a.recs)
}

// array returns the named chare array, nil if there is none.
func (r *RTS) array(name string) *chareArray {
	for _, a := range r.arrays {
		if a.name == name {
			return a
		}
	}
	return nil
}

// record resolves a chare ID to its record — a scan over the (one or two)
// arrays plus an index, no hashing — or nil if there is no such chare.
func (r *RTS) record(id ChareID) *chareRec {
	a := r.array(id.Array)
	if a == nil || id.Index < 0 || id.Index >= len(a.recs) {
		return nil
	}
	return &a.recs[id.Index]
}

// Start delivers the built-in Start message to every chare at the current
// virtual time. The caller then runs the simulation engine.
func (r *RTS) Start() {
	if r.started {
		panic("charm: already started")
	}
	r.started = true
	r.primeMemos()
	for _, p := range r.pes {
		p.beginInterval()
		for _, rec := range p.roster {
			p.enqueueApp(rec, Start{})
		}
		p.pump()
	}
}

// primeMemos eagerly computes every reduction-tree memo — child lists,
// per-array subtree element counts, subtree chare totals — so the
// parallel-window paths (reduction folds, hierarchical activation) only
// ever read them; a lazy fill from a shard worker would race with sibling
// shards recursing through the same entries. Called from coordinator
// context before parallel windows can run on new placements: at Start and
// by stepDone, once an LB step's placements are final.
func (r *RTS) primeMemos() {
	for _, p := range r.pes {
		r.treeChildren(p.index)
		for _, a := range r.arrays {
			p.subtreeExpected(a.name)
		}
		p.subtreeChareTotal()
	}
}

// consolidate folds each shard's Done count into the global one. It runs
// on the shard coordinator at every window barrier, and with one shard
// straight from chareDone. The finish time is exact despite the deferred
// bookkeeping: Done timestamps only grow within and across barriers, so
// the maximum over the final batch is the virtual time of the very last
// Done call.
func (r *RTS) consolidate() {
	var last sim.Time
	pending := false
	for i := range r.shardDone {
		sd := &r.shardDone[i]
		if sd.count == 0 {
			continue
		}
		pending = true
		r.done += sd.count
		sd.count = 0
		if sd.lastAt > last {
			last = sd.lastAt
		}
	}
	if pending && r.done >= r.total && !r.finished {
		r.finished = true
		r.finishAt = last
		if r.onDone != nil {
			r.onDone()
		}
	}
}

// Location reports the PE index currently hosting a chare.
func (r *RTS) Location(id ChareID) int {
	rec := r.record(id)
	if rec == nil {
		panic(fmt.Sprintf("charm: unknown chare %v", id))
	}
	return rec.loc
}

// Chare returns the live object for a chare ID (for tests and probes).
func (r *RTS) Chare(id ChareID) Chare {
	rec := r.record(id)
	if rec == nil {
		panic(fmt.Sprintf("charm: unknown chare %v", id))
	}
	return rec.obj
}

// Finished reports whether every chare has called Done.
func (r *RTS) Finished() bool { return r.finished }

// FinishTime returns the virtual time at which the last chare called Done.
// It panics if the run has not finished.
func (r *RTS) FinishTime() sim.Time {
	if !r.finished {
		panic("charm: run not finished")
	}
	return r.finishAt
}

// SetOnAllDone registers a callback fired when the last chare calls Done.
func (r *RTS) SetOnAllDone(fn func()) { r.onDone = fn }

// LBSteps reports how many load balancing steps have completed.
func (r *RTS) LBSteps() int { return r.lbSteps }

// Migrations reports the total number of objects migrated.
func (r *RTS) Migrations() int { return r.migrations }

// LBWallTime reports the cumulative wall time all PEs spent synchronized
// inside LB steps (sync entry to resume), averaged over PEs. Each PE keeps
// its own sum, since PEs resume in parallel windows; they add up in PE
// order, so the value is the same at every shard count.
func (r *RTS) LBWallTime() sim.Time {
	var total sim.Time
	for _, p := range r.pes {
		total += p.lbWall
	}
	return total / sim.Time(len(r.pes))
}

func (r *RTS) chareDone(p *pe, rec *chareRec) {
	if !rec.done {
		rec.done = true
		p.active--
	}
	// Count shard-locally: writing the global count from a window would
	// race other shards. With one shard the local count is the global one,
	// so it folds now and onDone fires at the finish instant; otherwise the
	// barrier hook folds it.
	sd := &r.shardDone[p.shard]
	sd.count++
	sd.lastAt = p.eng.Now()
	if len(r.shardDone) == 1 {
		r.consolidate()
	}
}

// appMsg is a pooled application message envelope. Each envelope owns a
// delivery closure bound once at creation (fn), so the per-message send
// path — the hottest path in the runtime — schedules its network hop and
// engine event with zero allocations: the envelope comes off the RTS free
// list, mirroring the engine's event free list one layer down.
type appMsg struct {
	rts   *RTS
	to    *chareRec
	data  interface{}
	bytes int
	dstPE int
	fn    func()
}

func (r *RTS) newAppMsg(shard int) *appMsg {
	pool := &r.msgFree[shard].free
	if n := len(*pool); n > 0 {
		m := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		r.met.msgsPooled.Inc()
		return m
	}
	m := &appMsg{rts: r}
	m.fn = m.deliver
	return m
}

// deliver fires at the message's network arrival instant, in the
// destination shard's execution context. The envelope is released (into
// that shard's pool) before the payload is processed, so deliveries that
// trigger further sends (pump running an entry) can immediately reuse it.
func (m *appMsg) deliver() {
	r := m.rts
	to, data, bytes, dstPE := m.to, m.data, m.bytes, m.dstPE
	dst := r.pes[dstPE]
	m.data = nil
	pool := &r.msgFree[dst.shard].free
	*pool = append(*pool, m)
	// Re-check location at delivery: the chare may have migrated
	// while the message was in flight (only possible for messages
	// crossing an LB step); forward if so, as Charm++ does.
	if to.loc != dstPE {
		r.send(dstPE, to, data, bytes)
		return
	}
	dst.enqueueApp(to, data)
	dst.pump()
}

// send routes a message to a chare's current location, via the
// interconnect when it lives on another PE, or via the intra-node path for
// local delivery (a real RTS enqueues locally; the intra-node latency
// stands in for that queueing cost). It runs in the sending PE's shard
// context and touches only that shard's pool.
func (r *RTS) send(fromPE int, to *chareRec, data interface{}, bytes int) {
	dstPE := to.loc
	src := r.pes[fromPE]
	m := r.newAppMsg(src.shard)
	m.to, m.data, m.bytes, m.dstPE = to, data, bytes, dstPE
	r.met.msgsSent.Inc()
	r.cfg.Net.Send(src.core.ID, r.pes[dstPE].core.ID, bytes, m.fn)
}
