package charm

import (
	"fmt"
	"time"

	"cloudlb/internal/core"
)

// Distributed load balancing protocol (a core.DistributedStrategy in
// Config.Strategy): no PE ever gathers the global task list. The flat
// protocol's steps 1–3 are replaced by a multi-round neighbor exchange:
//
//  1. When a PE's chares all sync, it measures its interval (the same
//     Eq. 2 measurement as the flat gather), builds its planner from the
//     local records plus the interval's per-chare neighbor communication
//     volumes, and sends PE 0 an O(1) "ready" note — never its tasks.
//     PE 0 probes chare-less PEs exactly as the flat master does.
//  2. When every PE is ready, round 1 fans out down the reduction tree.
//     Each round, every PE sends its O(1) load summary to its topology
//     neighbors, plans against the received snapshot, announces to each
//     neighbor what it is handing over (possibly nothing), and ships the
//     objects peer-to-peer. Announces precede objects on the same
//     in-order links, so a receiver always knows how many objects to
//     expect.
//  3. Once a PE has planned, applied its neighbors' announces, shipped
//     its outbound objects and installed its inbound ones, it folds its
//     termination sample with its tree children's and forwards the merge
//     up. The root decides: another round (fan-out down the tree) or
//     finish (the resume wave of the flat protocol).
//
// Messages can arrive at most one round early (a neighbor that saw the
// continue wave first), so every per-neighbor and per-child stream is
// consumed through a FIFO queue, one entry per round. Per-PE planning
// state stays O(local tasks + neighbors); the only global traffic is the
// O(1) ready note and the O(1) termination samples.

// diffCastBytes sizes the round-control fan-out message; diffTermBytes
// the termination sample (four floats plus header).
const (
	diffCastBytes = 16
	diffTermBytes = 48
)

// diffState is one PE's state in the distributed protocol.
type diffState struct {
	planner core.DistributedPlanner
	round   int
	inRound bool // between round fan-out and this PE's sample send

	planned    bool
	applied    bool // this round's inbound announces handed to the planner
	shipped    bool
	sampleSent bool
	expectObjs int
	gotObjs    int

	// Per-neighbor-slot FIFO queues (summaries and announces) and the
	// per-tree-child sample queue; entries can arrive one round early.
	sumQ  [][]core.PeerLoad
	annQ  [][][]core.TransferTask
	termQ [][]core.TermSample

	// Scratch reused across steps/rounds.
	taskScratch  []core.TransferTask
	affScratch   [][]float64
	peersScratch []core.PeerLoad
	slotScratch  [][]core.TransferTask
}

// slotIn returns pe's position in a neighbor list, -1 if absent.
func slotIn(nbr []int, pe int) int {
	for i, q := range nbr {
		if q == pe {
			return i
		}
	}
	return -1
}

// distEnterSync measures this PE's interval, builds its planner from the
// strictly local records, and reports readiness to PE 0.
func (p *pe) distEnterSync() {
	p.markInSync()
	st := p.measureStats()
	r := p.rts
	d := &p.diff
	nbr := r.distNbr[p.index]
	if d.sumQ == nil {
		d.sumQ = make([][]core.PeerLoad, len(nbr))
		d.annQ = make([][][]core.TransferTask, len(nbr))
		d.termQ = make([][]core.TermSample, len(r.treeChildren(p.index)))
	}
	d.taskScratch = d.taskScratch[:0]
	d.affScratch = d.affScratch[:0]
	// st.tasks follows the roster. A chare that sent nothing to a neighbor
	// PE has no affinity row (nil), which the planner's state accounting
	// tells apart from a zero row.
	for i, tk := range st.tasks {
		d.taskScratch = append(d.taskScratch, core.TransferTask{ID: tk.ID, Load: tk.Load, Bytes: tk.Bytes})
		var row []float64
		if c := p.roster[i].comm; len(c) > 0 {
			row = c
		}
		d.affScratch = append(d.affScratch, row)
	}
	d.planner = r.dist.NewPlanner(core.LocalPE{
		PE: p.index, Background: st.bg, Speed: st.speed, Offline: st.offline,
		Tasks: d.taskScratch, Affinity: d.affScratch,
	}, len(r.pes))

	load, bg, pe := d.planner.Summary().Load, st.bg, p.index
	master := r.pes[0]
	r.cfg.Net.Send(p.core.ID, master.core.ID, syncDoneBytes, func() {
		master.enqueueSys(func() { r.distMasterReady(pe, load, bg) })
	})
}

// distMasterReady runs on PE 0 as each PE's O(1) ready note arrives; the
// last one starts round 1.
func (r *RTS) distMasterReady(pe int, load, bg float64) {
	if r.arrive(pe, load, bg) {
		r.closeWindow()
		r.pes[0].diffCast(1, false)
	}
}

// diffCast fans a round start (or the finishing resume) down the
// reduction tree. Children are contacted in deterministic order before
// this PE acts, exactly like hierResume.
func (p *pe) diffCast(round int, finish bool) {
	r := p.rts
	for _, ci := range r.treeChildren(p.index) {
		child := r.pes[ci]
		r.cfg.Net.Send(p.core.ID, child.core.ID, diffCastBytes, func() {
			child.enqueueSys(func() { child.diffCast(round, finish) })
		})
	}
	if finish {
		p.onResume()
		return
	}
	p.diffBeginRound(round)
}

// diffBeginRound resets per-round state and sends this PE's summary to
// every neighbor.
func (p *pe) diffBeginRound(round int) {
	r := p.rts
	d := &p.diff
	d.round = round
	d.inRound = true
	d.planned, d.applied, d.shipped, d.sampleSent = false, false, false, false
	d.expectObjs, d.gotObjs = -1, 0
	nbr := r.distNbr[p.index]
	if len(nbr) == 0 {
		// Single-PE runtime: plan against no peers; nothing can move.
		p.diffPlan(nil)
		d.planned, d.applied, d.shipped = true, true, true
		d.expectObjs = 0
		p.diffMaybeFinishRound()
		return
	}
	sum := d.planner.Summary()
	for _, ni := range nbr {
		q := r.pes[ni]
		back := slotIn(r.distNbr[ni], p.index)
		r.cfg.Net.Send(p.core.ID, q.core.ID, statsMsgBase, func() {
			q.enqueueSys(func() { q.diffOnSummary(back, sum) })
		})
	}
	p.diffMaybePlan()
}

func (p *pe) diffOnSummary(slot int, s core.PeerLoad) {
	p.diff.sumQ[slot] = append(p.diff.sumQ[slot], s)
	p.diffMaybePlan()
}

// diffMaybePlan runs the planner once one summary per neighbor is queued
// for the current round, then announces and ships the transfers.
func (p *pe) diffMaybePlan() {
	d := &p.diff
	if !d.inRound || d.planned {
		return
	}
	nbr := p.rts.distNbr[p.index]
	for slot := range nbr {
		if len(d.sumQ[slot]) == 0 {
			return
		}
	}
	d.peersScratch = d.peersScratch[:0]
	for slot := range nbr {
		d.peersScratch = append(d.peersScratch, d.sumQ[slot][0])
		d.sumQ[slot] = d.sumQ[slot][1:]
	}
	d.planned = true
	p.diffSendTransfers(p.diffPlan(d.peersScratch))
	p.diffMaybeApply()
}

// diffPlan runs this PE's planner for the round and records the plan's
// host wall time, proposed hand-offs and planning state.
func (p *pe) diffPlan(peers []core.PeerLoad) []core.Transfer {
	t0 := time.Now()
	transfers := p.diff.planner.Plan(peers)
	moves := 0
	for _, tr := range transfers {
		moves += len(tr.Tasks)
	}
	p.rts.lb.instr.planned(time.Since(t0), moves)
	p.rts.met.peakState(p.index, p.diff.planner.StateBytes())
	return transfers
}

// diffSendTransfers announces this round's hand-offs to every neighbor
// (empty announces included — the receiver counts inbound objects from
// them) and ships the objects. Announces go out before the pack burst,
// so on each in-order link the announce precedes the objects.
func (p *pe) diffSendTransfers(transfers []core.Transfer) {
	r := p.rts
	d := &p.diff
	nbr := r.distNbr[p.index]
	if d.slotScratch == nil {
		d.slotScratch = make([][]core.TransferTask, len(nbr))
	}
	byslot := d.slotScratch
	for i := range byslot {
		byslot[i] = nil
	}
	for _, tr := range transfers {
		slot := slotIn(nbr, tr.To)
		if slot < 0 {
			panic(fmt.Sprintf("charm: distributed strategy sent tasks from PE %d to non-neighbor PE %d", p.index, tr.To))
		}
		if r.pes[tr.To].retired {
			// The PE set is frozen for the whole step and the peer summary
			// was flagged offline; a correct planner cannot target it.
			panic(fmt.Sprintf("charm: distributed strategy handed load to revoked PE %d", tr.To))
		}
		byslot[slot] = tr.Tasks
	}
	for slot, ni := range nbr {
		q := r.pes[ni]
		back := slotIn(r.distNbr[ni], p.index)
		tasks := byslot[slot]
		r.cfg.Net.Send(p.core.ID, q.core.ID, orderMsgBase+perMoveBytes*len(tasks), func() {
			q.enqueueSys(func() { q.diffOnAnnounce(back, tasks) })
		})
	}
	packCPU := 0.0
	p.shipScratch = p.shipScratch[:0]
	for slot, ni := range nbr {
		for _, tk := range byslot[slot] {
			rec := r.record(tk.ID)
			if rec == nil || rec.host != p.index {
				panic(fmt.Sprintf("charm: PE %d planned to move absent chare %v", p.index, tk.ID))
			}
			p.uninstall(rec)
			b := rec.obj.PackSize()
			packCPU += float64(b) * packCPUPerByte
			p.shipScratch = append(p.shipScratch, shipment{rec: rec, bytes: b, to: ni})
			rec.loc = ni
			r.migrations++
			r.lb.instr.moved(tk.Load, p.index, ni)
		}
	}
	if len(p.shipScratch) == 0 {
		d.shipped = true
		p.diffMaybeFinishRound()
		return
	}
	p.runBurst(packCPU, func() {
		for _, s := range p.shipScratch {
			s := s
			dst := r.pes[s.to]
			r.cfg.Net.Send(p.core.ID, dst.core.ID, s.bytes+migrateHeader, func() {
				dst.enqueueSys(func() { dst.diffReceiveMigrant(s.rec, s.bytes) })
			})
		}
		d.shipped = true
		p.diffMaybeFinishRound()
	})
}

func (p *pe) diffOnAnnounce(slot int, tasks []core.TransferTask) {
	p.diff.annQ[slot] = append(p.diff.annQ[slot], tasks)
	p.diffMaybeApply()
}

// diffMaybeApply hands the round's inbound announces to the planner once
// every neighbor's is queued — strictly after this PE's own Plan, so
// every planner in a round works from the same pre-transfer snapshot.
func (p *pe) diffMaybeApply() {
	d := &p.diff
	if !d.inRound || !d.planned || d.applied {
		return
	}
	nbr := p.rts.distNbr[p.index]
	for slot := range nbr {
		if len(d.annQ[slot]) == 0 {
			return
		}
	}
	d.taskScratch = d.taskScratch[:0]
	expect := 0
	for slot := range nbr {
		ts := d.annQ[slot][0]
		d.annQ[slot] = d.annQ[slot][1:]
		expect += len(ts)
		d.taskScratch = append(d.taskScratch, ts...)
	}
	d.applied = true
	d.expectObjs = expect
	if len(d.taskScratch) > 0 {
		d.planner.Receive(d.taskScratch)
		p.rts.met.peakState(p.index, d.planner.StateBytes())
	}
	p.diffMaybeFinishRound()
}

// diffReceiveMigrant installs one inbound object (unpack burst), exactly
// like receiveMigrant but counting toward the round, not the flat step.
func (p *pe) diffReceiveMigrant(rec *chareRec, bytes int) {
	p.runBurst(float64(bytes)*packCPUPerByte, func() {
		p.install(rec)
		// The migrant synced on its source PE; the uniform resume rule
		// (Resume goes exactly to synced chares) applies here too.
		rec.synced = true
		p.diff.gotObjs++
		p.diffMaybeFinishRound()
	})
}

// diffMaybeFinishRound folds this PE's termination sample with its tree
// children's and forwards the merge up; the root decides the next round
// or the finish.
func (p *pe) diffMaybeFinishRound() {
	d := &p.diff
	if !d.inRound || !d.planned || !d.applied || !d.shipped || d.sampleSent {
		return
	}
	if d.gotObjs < d.expectObjs {
		return
	}
	r := p.rts
	kids := r.treeChildren(p.index)
	for i := range kids {
		if len(d.termQ[i]) == 0 {
			return
		}
	}
	sample := d.planner.Sample()
	for i := range kids {
		sample.Merge(d.termQ[i][0])
		d.termQ[i] = d.termQ[i][1:]
	}
	d.sampleSent = true
	d.inRound = false
	if parent := r.treeParent(p.index); parent >= 0 {
		pp := r.pes[parent]
		slot := slotIn(r.treeChildren(parent), p.index)
		s := sample
		r.cfg.Net.Send(p.core.ID, pp.core.ID, diffTermBytes, func() {
			pp.enqueueSys(func() { pp.diffOnChildSample(slot, s) })
		})
		return
	}
	// Root: decide another round, or close the step and start the resume
	// wave.
	r.lb.rounds = d.round
	if r.dist.Converged(sample) || d.round >= r.dist.MaxRounds() {
		r.stepDone()
		p.diffCast(d.round, true)
		return
	}
	p.diffCast(d.round+1, false)
}

func (p *pe) diffOnChildSample(slot int, s core.TermSample) {
	p.diff.termQ[slot] = append(p.diff.termQ[slot], s)
	p.diffMaybeFinishRound()
}

// diffTrackComm accumulates one outgoing application message into the
// sender chare's per-neighbor communication row — the planner's
// affinity input. Only inter-PE traffic to topology neighbors counts;
// everything else cannot influence a diffusion hand-off anyway.
func (p *pe) diffTrackComm(self, to *chareRec, bytes int) {
	dst := to.loc
	if dst == p.index {
		return
	}
	nbr := p.rts.distNbr[p.index]
	slot := slotIn(nbr, dst)
	if slot < 0 {
		return
	}
	row := self.comm
	if len(row) == 0 {
		// The first bytes this interval: reuse the record's buffer.
		if cap(row) < len(nbr) {
			row = make([]float64, len(nbr))
		} else {
			row = row[:len(nbr)]
			clear(row)
		}
		self.comm = row
	}
	row[slot] += float64(bytes)
}

// diffReset clears the per-interval protocol state; beginInterval calls
// it on every resume.
func (p *pe) diffReset() {
	if p.rts.dist == nil {
		return
	}
	d := &p.diff
	d.planner = nil
	d.round, d.inRound = 0, false
	d.planned, d.applied, d.shipped, d.sampleSent = false, false, false, false
	d.expectObjs, d.gotObjs = 0, 0
	for i := range d.sumQ {
		d.sumQ[i] = d.sumQ[i][:0]
	}
	for i := range d.annQ {
		d.annQ[i] = d.annQ[i][:0]
	}
	for i := range d.termQ {
		d.termQ[i] = d.termQ[i][:0]
	}
}

// syncReport is the probe/evacuation entry into the sync protocol,
// dispatching on the configured mode (flat gather vs distributed).
func (p *pe) syncReport() {
	if p.inSync {
		return
	}
	if p.rts.dist != nil {
		p.distEnterSync()
		return
	}
	p.enterSync()
}
