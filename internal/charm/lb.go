package charm

import (
	"fmt"
	"slices"
	"time"

	"cloudlb/internal/core"
	"cloudlb/internal/obs"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// The AtSync load balancing protocol:
//
//  1. Every chare calls AtSync. When all chares on a PE have synced, the
//     PE measures its interval — per-task wall times from the load
//     database and the background load O_p from Eq. 2 — and sends the
//     stats to PE 0 (the master).
//  2. PEs that own no chares cannot observe the sync point themselves, so
//     once the master has stats from every non-empty PE it probes the
//     empty ones, which respond with their (taskless) measurements.
//  3. With all P samples, the master runs the strategy, updates the
//     location table, and sends each PE its migration orders along with
//     the number of inbound objects to expect.
//  4. PEs serialize (CPU burst), transmit objects over the interconnect,
//     deserialize inbound objects (CPU burst), and report completion.
//  5. The master broadcasts resume; every PE resets its load database and
//     delivers the built-in Resume message to its chares.
//
// With a nil strategy the whole protocol is skipped: AtSync immediately
// resumes the calling chare, so "noLB" runs pay no synchronization cost,
// matching the paper's baseline.

// Message size constants (bytes) for protocol traffic.
const (
	statsMsgBase  = 32
	orderMsgBase  = 32
	perMoveBytes  = 16
	syncDoneBytes = 16
	probeBytes    = 16
	resumeMsgBase = 32
	migrateHeader = 64
)

// lbState is PE 0's state of one LB step. The flat gather and
// DiffusionLB count measurement arrivals in it (see arrive); every
// protocol keeps the step's record in instr until stepDone publishes it.
type lbState struct {
	active    bool
	arrived   int
	probed    bool
	stats     core.Stats // the flat gather's gathered measurements
	doneCount int
	moves     []core.Move
	rounds    int // DiffusionLB's neighbor-exchange rounds
	instr     *lbStepInstr
}

type peStats struct {
	pe      int
	tasks   []core.Task
	bg      float64
	speed   float64
	offline bool
}

// load is the PE's measured total: O_p plus every task's wall time.
func (st peStats) load() float64 {
	l := st.bg
	for _, t := range st.tasks {
		l += t.Load
	}
	return l
}

// addTo appends the measurement to a gathered strategy input.
func (st peStats) addTo(stats *core.Stats) {
	stats.Tasks = append(stats.Tasks, st.tasks...)
	stats.Cores = append(stats.Cores, core.CoreSample{PE: st.pe, Background: st.bg, Speed: st.speed, Offline: st.offline})
}

// shipment is one outbound object in a PE's migration manifest. The
// manifest itself lives in per-PE scratch (pe.shipScratch) reused across
// LB steps.
type shipment struct {
	rec   *chareRec
	bytes int
	to    int
}

// maybeEnterSync fires when a chare syncs: once every local chare has, the
// PE measures and reports. A chare that syncs into a step that has
// already ended here resumes at once.
func (p *pe) maybeEnterSync(self *chareRec) {
	if p.rts.cfg.Strategy == nil {
		// noLB short-circuit: resume just this chare immediately. The
		// chare stays marked synced until the Resume is delivered, so
		// already-queued messages cannot drive it past the sync point.
		p.enqueueApp(self, Resume{})
		return
	}
	if !p.resumeEnded(self) {
		p.checkSync()
	}
}

// resumeEnded resumes a chare whose sync mark names a step that has
// already ended on this PE. Only a revocation leaves such a mark: an
// evacuee that synced into a step its new PE finished without it, or one
// that left before its sync point and reached it after the step ended.
// Nothing else would resume either. The Resume goes ahead of every queued
// delivery, so nothing queued for the chare runs before it, and the mark
// goes at once.
func (p *pe) resumeEnded(rec *chareRec) bool {
	if !rec.synced || rec.syncs > p.resumed {
		return false
	}
	rec.synced = false
	if p.appHead == 0 {
		p.appQ = slices.Insert(p.appQ, 0, appDelivery{})
		p.appHead = 1
	}
	p.appHead--
	p.appQ[p.appHead] = appDelivery{to: rec, data: Resume{}}
	return true
}

// checkSync enters sync once every local chare has synced, under a
// strategy.
func (p *pe) checkSync() {
	// A retired PE never initiates a sync: its chares are on their way to
	// other PEs and will complete the count there. (It still answers the
	// master's empty-PE probe so the gather can total up.)
	if p.retired || p.inSync {
		return
	}
	// Chares that called Done will never sync again; only the remaining
	// active ones have to agree. (Without faults the chares run in
	// lockstep and this is the plain all-local-chares-synced condition.)
	if !p.allSynced() {
		return
	}
	if p.rts.cfg.HierarchicalLB {
		p.hierOnLocalSynced()
		return
	}
	if p.rts.dist != nil {
		p.distEnterSync()
		return
	}
	p.enterSync()
}

func (p *pe) enterSync() {
	p.markInSync()
	p.sendStats()
}

// measureStats snapshots this PE's load database and background load
// (paper Eq. 2) for the interval since the last resume.
func (p *pe) measureStats() peStats {
	now := p.eng.Now()
	tlb := float64(now - p.intervalAt)
	_, idleNow := p.core.ProcStat()
	idleDelta := float64(idleNow - p.idleAtLB)

	st := peStats{pe: p.index, speed: p.core.Speed()}
	sumTasks := 0.0
	// The roster is already in the canonical (Array, Index) order; the
	// task records are built into a per-PE scratch reused across steps
	// (the master copies them into its gather before the next step).
	p.tasksScratch = p.tasksScratch[:0]
	for _, rec := range p.roster {
		sumTasks += rec.wall
		p.tasksScratch = append(p.tasksScratch, core.Task{
			ID: rec.id, PE: p.index, Load: rec.wall, Bytes: rec.obj.PackSize(),
		})
	}
	st.tasks = p.tasksScratch
	// Paper Eq. 2: O_p = T_lb − Σ t_i − t_idle. Interference inflates the
	// task terms, so the subtraction can go slightly negative; clamp.
	bg := tlb - sumTasks - idleDelta
	if bg < 0 {
		bg = 0
	}
	st.bg = bg
	st.offline = p.retired
	p.sentStats = true
	p.rts.met.measured(p.index, sumTasks, bg)
	return st
}

// sendStats measures the interval and ships the load database to PE 0
// (flat mode).
func (p *pe) sendStats() {
	st := p.measureStats()
	bytes := statsMsgBase + statsBytesPerTask*len(st.tasks)
	master := p.rts.pes[0]
	p.rts.cfg.Net.Send(p.core.ID, master.core.ID, bytes, func() {
		master.enqueueSys(func() { p.rts.masterStats(st) })
	})
}

// masterStats runs on PE 0 as each PE's measurement arrives.
func (r *RTS) masterStats(st peStats) {
	all := r.arrive(st.pe, st.load(), st.bg)
	st.addTo(&r.lb.stats)
	if all {
		r.masterPlan()
	}
}

// arrive counts one PE's measurement — its load and O_p — at PE 0 under
// the flat gather and DiffusionLB, and reports whether it was the last.
// The first arrival begins the step; once every PE that can observe the
// sync point has reported, the chare-less rest are probed.
func (r *RTS) arrive(pe int, load, bg float64) bool {
	lb := &r.lb
	if !lb.active {
		*lb = lbState{
			active: true,
			stats:  core.Stats{Tasks: lb.stats.Tasks[:0], Cores: lb.stats.Cores[:0]},
			instr:  r.met.beginStep(r.lbSteps+1, len(r.pes)),
		}
	}
	lb.instr.arrived(pe, load, bg)
	lb.arrived++
	if lb.arrived == len(r.pes) {
		return true
	}
	if !lb.probed && lb.arrived == r.nonEmptyPEs() {
		lb.probed = true
		for _, p := range r.pes {
			if p.active == 0 && !p.sentStats {
				r.probeEmpty(p)
			}
		}
	}
	return false
}

// closeWindow ends the step's measurement window at PE 0's clock when
// the last PE's measurement has arrived, and returns T_lb: the time since
// the earliest PE's interval began (Eq. 2). PEs resume from the previous
// step at slightly different instants; the earliest start bounds every
// PE's window. Master-side handlers always run with the master PE's
// clock at the event time (sequential demand was raised before any
// measurement could be sent), so its engine is the one to read — r.eng
// can be a different, ragged shard when the runtime does not own core 0.
func (r *RTS) closeWindow() sim.Time {
	now := r.pes[0].eng.Now()
	earliest := sim.Never
	for _, p := range r.pes {
		earliest = min(earliest, p.intervalAt)
	}
	r.lb.instr.window(now, now-earliest)
	return now - earliest
}

// allSynced reports whether this PE hosts chares still participating in
// AtSync (not Done), every one of them has synced, and no evacuee is on
// its way here: an evacuee landing on a PE in sync would never run to its
// own sync point, because the pump runs no application entry there.
func (p *pe) allSynced() bool {
	if p.active == 0 || p.evacIn > 0 {
		return false
	}
	for _, rec := range p.roster {
		if !rec.done && !rec.synced {
			return false
		}
	}
	return true
}

// nonEmptyPEs counts PEs that can still observe a sync point themselves —
// those with at least one active (not Done) chare. The rest get probed.
func (r *RTS) nonEmptyPEs() int {
	n := 0
	for _, p := range r.pes {
		if p.active > 0 {
			n++
		}
	}
	return n
}

func (r *RTS) probeEmpty(p *pe) {
	master := r.pes[0]
	r.cfg.Net.Send(master.core.ID, p.core.ID, probeBytes, func() {
		p.enqueueSys(func() { p.syncReport() })
	})
}

// planMoves sorts and validates the gathered statistics, runs the
// strategy, applies the new mapping to the location table, and returns
// the per-PE migration orders and inbound counts, indexed by PE. Both are
// RTS-level scratch reused across LB steps (a step's orders are consumed
// before the next step can begin). It is shared between the flat gather
// and the hierarchical tree protocol, and runs as the last measurement
// arrives.
func (r *RTS) planMoves(stats *core.Stats) (outs [][]core.Move, ins []int, moves []core.Move) {
	// Deterministic strategy input: sort cores by PE, tasks by ID. Both
	// comparators are strict total orders (PEs and IDs are unique), so the
	// unstable sort is deterministic.
	slices.SortFunc(stats.Cores, func(a, b core.CoreSample) int { return a.PE - b.PE })
	slices.SortFunc(stats.Tasks, func(a, b core.Task) int { return a.ID.Compare(b.ID) })
	stats.WallSinceLB = float64(r.closeWindow())
	if err := core.Validate(*stats); err != nil {
		panic(fmt.Sprintf("charm: invalid LB stats: %v", err))
	}

	// The centralized gather concentrates O(all tasks) planning state on
	// the master; record it against the same per-PE high-water series the
	// distributed protocol feeds, so Figure 7 can compare the two shapes.
	r.met.peakState(0, statsMsgBase+statsBytesPerTask*len(stats.Tasks)+32*len(stats.Cores))

	// The LB-step span measures the strategy's host wall time — the real
	// CPU cost of planning, which the anomaly thresholds watch — while the
	// args carry the virtual-time context (step number, input size, plan).
	instr := r.lb.instr
	stepSpan := r.cfg.Obs.Start(obs.CatLB, "lb-step", r.cfg.ObsTID)
	t0 := time.Now()
	moves = r.cfg.Strategy.Plan(*stats)
	instr.planned(time.Since(t0), len(moves))
	stepSpan.End("rts", r.name, "step", r.lbSteps+1,
		"pes", len(stats.Cores), "tasks", len(stats.Tasks), "moves", len(moves))
	// Drop no-op moves defensively.
	outs, ins = r.outsScratch, r.insScratch
	for i := range outs {
		outs[i] = outs[i][:0]
		ins[i] = 0
	}
	for _, m := range moves {
		rec := r.record(m.Task)
		if rec == nil {
			panic(fmt.Sprintf("charm: strategy moved unknown task %v", m.Task))
		}
		from := rec.loc
		if m.To < 0 || m.To >= len(r.pes) {
			panic(fmt.Sprintf("charm: strategy moved %v to invalid PE %d", m.Task, m.To))
		}
		if r.pes[m.To].retired {
			// The PE set is frozen for the duration of a step (elastic ops
			// are deferred), so the stats marked this PE offline and a
			// correct strategy cannot have targeted it.
			panic(fmt.Sprintf("charm: strategy moved %v to revoked PE %d", m.Task, m.To))
		}
		if m.To == from {
			continue
		}
		outs[from] = append(outs[from], m)
		ins[m.To]++
		rec.loc = m.To
		r.migrations++
		if instr != nil {
			i, _ := slices.BinarySearchFunc(stats.Tasks, m.Task, func(t core.Task, id core.TaskID) int { return t.ID.Compare(id) })
			instr.moved(stats.Tasks[i].Load, from, m.To)
		}
	}
	return outs, ins, moves
}

// masterPlan runs the strategy and fans out migration orders (flat mode).
func (r *RTS) masterPlan() {
	lb := &r.lb
	outs, ins, moves := r.planMoves(&lb.stats)
	lb.moves = moves

	master := r.pes[0]
	for _, p := range r.pes {
		p := p
		order := outs[p.index]
		expect := ins[p.index]
		bytes := orderMsgBase + perMoveBytes*len(order)
		r.cfg.Net.Send(master.core.ID, p.core.ID, bytes, func() {
			p.enqueueSys(func() { p.onOrder(order, expect) })
		})
	}
}

// onOrder packs and ships this PE's outgoing objects and records how many
// inbound objects to await.
func (p *pe) onOrder(order []core.Move, expect int) {
	p.orderSeen = true
	p.expectIn = expect
	if len(order) == 0 {
		p.maybeSyncDone()
		return
	}
	packCPU := 0.0
	p.shipScratch = p.shipScratch[:0]
	for _, m := range order {
		rec := p.rts.record(m.Task)
		if rec == nil || rec.host != p.index {
			panic(fmt.Sprintf("charm: PE %d ordered to move absent chare %v", p.index, m.Task))
		}
		p.uninstall(rec)
		b := rec.obj.PackSize()
		packCPU += float64(b) * packCPUPerByte
		p.shipScratch = append(p.shipScratch, shipment{rec: rec, bytes: b, to: m.To})
	}
	p.runBurst(packCPU, func() {
		for _, s := range p.shipScratch {
			s := s
			dst := p.rts.pes[s.to]
			p.rts.cfg.Net.Send(p.core.ID, dst.core.ID, s.bytes+migrateHeader, func() {
				dst.enqueueSys(func() { dst.receiveMigrant(s.rec, s.bytes) })
			})
		}
		p.maybeSyncDone()
	})
}

// receiveMigrant deserializes an inbound object (CPU burst) and installs it.
func (p *pe) receiveMigrant(rec *chareRec, bytes int) {
	p.runBurst(float64(bytes)*packCPUPerByte, func() {
		p.install(rec)
		// A migrant synced on its source PE — it would not have moved
		// otherwise. Marking it here keeps the resume rule uniform:
		// Resume goes exactly to the synced chares.
		rec.synced = true
		p.arrivedIn++
		p.maybeSyncDone()
	})
}

// maybeSyncDone reports completion once this PE has shipped all its
// outbound objects and installed all inbound ones — to the master in
// flat mode, aggregated up the tree in hierarchical mode.
func (p *pe) maybeSyncDone() {
	if !p.inSync || !p.orderSeen || p.doneSent || p.running {
		return
	}
	if p.arrivedIn < p.expectIn {
		return
	}
	p.doneSent = true
	if p.rts.cfg.HierarchicalLB {
		p.hier.selfDone = true
		p.hierMaybeSyncDone()
		return
	}
	master := p.rts.pes[0]
	p.rts.cfg.Net.Send(p.core.ID, master.core.ID, syncDoneBytes, func() {
		master.enqueueSys(func() { p.rts.masterSyncDone() })
	})
}

// masterSyncDone fires per PE; when all have reported, the step resumes.
func (r *RTS) masterSyncDone() {
	lb := &r.lb
	lb.doneCount++
	if lb.doneCount < len(r.pes) {
		return
	}
	r.stepDone()
	master := r.pes[0]
	bytes := resumeMsgBase + perMoveBytes*len(lb.moves)
	for _, p := range r.pes {
		p := p
		r.cfg.Net.Send(master.core.ID, p.core.ID, bytes, func() {
			p.enqueueSys(func() { p.onResume() })
		})
	}
}

// stepDone closes a completed LB step and publishes its record. Every
// protocol calls it once, merged on the coordinator, when the step's last
// migrant is installed and before the resume wave. The placements are
// final here, so every PE's subtree memos are recomputed at once, and
// every PE's unit of sequential demand is released: the resume wave and
// the next iteration read only their own PE's state and the primed memos,
// so they run in parallel windows (DESIGN §10 lists the handlers).
func (r *RTS) stepDone() {
	for _, p := range r.pes {
		clear(p.subtreeMemo)
		p.subtreeTotalMemo = -1
	}
	r.lb.active = false
	r.lbSteps++
	r.met.lbSteps.Inc()
	r.met.publishStep(r.lb.instr, r.lb.rounds)
	r.lb.instr = nil
	if r.onLBStep != nil {
		r.onLBStep()
	}
	for _, p := range r.pes {
		if p.seqHeld {
			p.seqHeld = false
			r.sh.ReleaseSequential()
		}
	}
	r.primeMemos()
}

// onResume closes the LB step on this PE and restarts its chares.
func (p *pe) onResume() {
	now := p.eng.Now()
	p.lbWall += now - p.syncAt
	if rec := p.rts.cfg.Trace; rec != nil {
		rec.Add(trace.Segment{
			Core: p.core.ID, Start: p.syncAt, End: now, Kind: trace.KindLB, Label: "lb-step",
		})
	}
	// Resume goes exactly to the chares whose sync mark names a step that
	// has now ended here, in roster order: every chare that synced into
	// this step (all of them, in the absence of faults) and an evacuee that
	// synced into it elsewhere. A chare evacuated here mid-iteration never
	// reached its sync point and must not be pushed past it; its own
	// pending messages drive it on.
	p.resumed++
	for _, rec := range p.roster {
		if rec.synced && rec.syncs <= p.resumed {
			rec.synced = false
			p.enqueueApp(rec, Resume{})
		}
	}
	p.beginInterval()
	// The last PE to resume applies any revocation/restore that arrived
	// mid-step, before application work restarts.
	p.rts.drainElastic()
}
