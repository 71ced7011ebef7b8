package charm

import (
	"fmt"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// Elasticity: cores can be revoked mid-run (a preemptible cloud instance
// being reclaimed) and later replaced. The runtime's job is survival —
// getting every chare off a dying core so the application keeps making
// progress no matter which strategy is configured — while the configured
// strategy remains responsible for performance, rebalancing onto a
// replacement core at its next regular LB step.
//
// Two revocation shapes are modelled:
//
//   - With advance warning (spot instances send one): evacuation starts
//     the moment the notice arrives, while the core is still serving CPU;
//     the core goes offline when the warning expires.
//   - Hard kill (warning 0): the core goes offline immediately. The
//     failure is only noticed faultDetectionDelay later (a real RTS sees
//     a heartbeat time out), and the chares are then evacuated from the
//     node's memory. In-queue messages survive with the chares.
//
// Either way the in-flight entry method is force-completed first (the
// final scheduler slice before the hypervisor pulls the core), so its
// sends are not lost and tightly coupled neighbors never deadlock on a
// half-executed step.
//
// Evacuation is deliberately outside the AtSync protocol: it ships objects
// directly to the least-populated live PEs, paying network transfer and
// destination-side unpack CPU, without waiting for a sync point the dying
// core's chares might never reach. A revocation or restore arriving while
// an LB step is in progress is deferred to the end of that step — the
// protocol's gather counts and migration bursts assume a frozen PE set —
// so a step in flight delays the revocation by at most its own duration.

// RevokePE takes the PE's core out of service, with warning seconds of
// advance notice (0 = hard kill). Interference generators pinned to the
// same core must be stopped by the caller first; a core cannot go offline
// while foreign threads still run on it. Not supported together with
// HierarchicalLB.
func (r *RTS) RevokePE(peIdx int, warning sim.Duration) {
	if r.cfg.HierarchicalLB {
		panic("charm: elasticity is not supported with HierarchicalLB")
	}
	if peIdx < 0 || peIdx >= len(r.pes) {
		panic(fmt.Sprintf("charm: revoking invalid PE %d", peIdx))
	}
	if warning < 0 {
		panic("charm: negative revocation warning")
	}
	// Evacuation reaches across every shard (it ships objects to arbitrary
	// live PEs outside any synchronized protocol), so elasticity pins the
	// run to merged-sequential execution for good. The scenario layer
	// already forces this for fault scenarios; this is the backstop for
	// direct API users.
	r.sh.ForceSequential()
	// Deferred operations queue in arrival order and are checked when they
	// apply: a restore of this PE may itself still be waiting.
	if r.lbBusy() {
		r.pendingElastic = append(r.pendingElastic, func() { r.RevokePE(peIdx, warning) })
		return
	}
	p := r.pes[peIdx]
	if p.retired {
		panic(fmt.Sprintf("charm: PE %d already revoked", peIdx))
	}
	p.retired = true
	r.cfg.Trace.Mark(p.core.ID, r.eng.Now(), "revoked")
	if p.thread.Running() {
		p.thread.FinishNow()
	}
	if warning > 0 {
		r.evacuatePE(p)
		r.eng.After(warning, func() { r.takeOffline(p) })
		return
	}
	r.takeOffline(p)
	r.eng.After(r.detectDelay, func() {
		if p.retired {
			r.evacuatePE(p)
		}
	})
}

// RestorePE brings a revoked PE back into service. With newCoreID >= 0 the
// PE's worker re-pins to that replacement core (which must carry no other
// PE); with -1 the original core itself returns. The restored core starts
// empty: work returns to it at the strategy's next LB step, or never under
// NoLB — exactly the gap the Fig. 5 experiment measures.
func (r *RTS) RestorePE(peIdx int, newCoreID int) {
	if peIdx < 0 || peIdx >= len(r.pes) {
		panic(fmt.Sprintf("charm: restoring invalid PE %d", peIdx))
	}
	r.sh.ForceSequential()
	// Checked when applied, like RevokePE: the revocation this restore
	// undoes may still be queued behind the LB step in progress.
	if r.lbBusy() {
		r.pendingElastic = append(r.pendingElastic, func() { r.RestorePE(peIdx, newCoreID) })
		return
	}
	p := r.pes[peIdx]
	if !p.retired {
		panic(fmt.Sprintf("charm: PE %d is not revoked", peIdx))
	}
	old := p.core
	if p.wentOffline {
		r.cfg.Trace.Add(trace.Segment{
			Core: old.ID, Start: p.offlineAt, End: r.eng.Now(),
			Kind: trace.KindOffline, Label: "revoked",
		})
	}
	if newCoreID >= 0 {
		c := r.cfg.Machine.Core(newCoreID)
		if !c.Online() {
			c.SetOnline()
		}
		p.thread.Migrate(c)
		p.core = c
		// The replacement core may live on a different shard; re-pin. Safe
		// because elasticity forces merged-sequential execution.
		p.eng = r.cfg.Machine.EngineFor(c.ID)
		p.shard = r.cfg.Machine.ShardOf(c.ID)
	} else if p.wentOffline {
		old.SetOnline()
	}
	p.retired = false
	p.wentOffline = false
	p.resetLoadDB()
	r.cfg.Trace.Mark(p.core.ID, r.eng.Now(), "restored")
	// A restore that lands before a hard kill's detection delay finds
	// the PE's chares and queue still here. While it was retired its
	// pump ran nothing, and the chare that synced last (its entry forced
	// complete by the revocation) could not take it into sync; resume
	// both.
	if r.cfg.Strategy != nil {
		p.checkSync()
	}
	p.pump()
}

// Evacuations reports how many chares were emergency-evacuated off
// revoked cores (not counting regular LB migrations).
func (r *RTS) Evacuations() int { return r.evacuations }

// Machine returns the cluster this runtime is mapped onto.
func (r *RTS) Machine() *machine.Machine { return r.cfg.Machine }

// Retired reports whether a PE is currently revoked.
func (r *RTS) Retired(peIdx int) bool { return r.pes[peIdx].retired }

// lbBusy reports whether any part of an AtSync LB step is in progress.
// Elastic operations are deferred while it is: the protocol's gather
// counts, migration bursts and resume broadcast all assume the PE set
// frozen at step entry.
func (r *RTS) lbBusy() bool {
	if r.lb.active {
		return true
	}
	for _, p := range r.pes {
		if p.inSync {
			return true
		}
	}
	return false
}

// drainElastic applies deferred revocations/restores; the last PE to
// resume from an LB step calls it. Every PE calls it from onResume, which
// may run in a parallel window, so the length check comes first: an op is
// only ever queued after RevokePE or RestorePE pinned the run merged
// (ForceSequential), and only then does lbBusy read every PE's state.
func (r *RTS) drainElastic() {
	if len(r.pendingElastic) == 0 || r.lbBusy() {
		return
	}
	ops := r.pendingElastic
	r.pendingElastic = nil
	for _, op := range ops {
		op()
	}
}

// takeOffline powers the core down once its warning (if any) expired.
func (r *RTS) takeOffline(p *pe) {
	if !p.retired {
		return // restored before the warning expired
	}
	if p.thread.Running() {
		p.thread.FinishNow()
	}
	// On a hard kill the chares are still here; they sit inert on the dead
	// core (the pump refuses app work on a retired PE) until the detection
	// delay elapses and the evacuation ships them out.
	p.core.SetOffline()
	p.wentOffline = true
	p.offlineAt = r.eng.Now()
	r.cfg.Trace.Mark(p.core.ID, r.eng.Now(), "offline")
}

// evacuatePE ships every chare off a retiring PE to the least-populated
// live PEs and forwards its queued deliveries. The source pays no pack CPU
// — on a hard kill the core is already gone and the state is read out of
// node memory — but each destination pays its usual unpack burst.
func (r *RTS) evacuatePE(p *pe) {
	pending := make(map[int]int)
	// The roster is already in (Array, Index) order; draining from the
	// front via uninstall preserves exactly the sorted evacuation order.
	// Each record carries its load-database entry and sync mark along.
	for len(p.roster) > 0 {
		rec := p.roster[0]
		p.uninstall(rec)
		dst := r.pickEvacDest(p.index, pending)
		pending[dst]++
		rec.loc = dst
		r.evacuations++
		r.met.evacuations.Inc()
		d := r.pes[dst]
		d.evacIn++
		bytes := rec.obj.PackSize()
		r.cfg.Net.Send(p.core.ID, d.core.ID, bytes+migrateHeader, func() {
			d.enqueueSys(func() { d.receiveEvacuee(rec, bytes) })
		})
	}
	// The queued deliveries all address chares that just left; route them
	// to the new homes. Later messages find the updated location directly.
	q := p.appQ[p.appHead:]
	p.appQ, p.appHead = nil, 0
	for _, dlv := range q {
		r.send(p.index, dlv.to, dlv.data, 64)
	}
	// A hard kill can be detected while a stats gather is already waiting
	// on this PE's chares — chares that will now sync on their new homes.
	// Report the (empty, offline-flagged) measurement so the master's
	// count can total up; without it the step would wait forever.
	if r.cfg.Strategy != nil && !p.sentStats && !p.inSync && r.lbBusy() {
		p.syncReport()
	}
	p.pump()
}

// pickEvacDest selects the live PE with the fewest chares (current plus
// already inbound from this evacuation), lowest index on ties. A PE not in
// sync beats one that is: a PE in sync runs no application entry until the
// step resumes it, so an evacuee that has not synced yet would sit there
// while its neighbours wait on it.
func (r *RTS) pickEvacDest(srcIdx int, pending map[int]int) int {
	best, bestN, bestInSync := -1, 0, false
	for i, q := range r.pes {
		if i == srcIdx || q.retired {
			continue
		}
		n := len(q.roster) + pending[i]
		if best < 0 || bestInSync && !q.inSync || q.inSync == bestInSync && n < bestN {
			best, bestN, bestInSync = i, n, q.inSync
		}
	}
	if best < 0 {
		panic("charm: no live PE to evacuate to")
	}
	return best
}

// receiveEvacuee installs an emergency-evacuated chare: unpack burst, then
// adopt the chare, whose record still holds its load-database entry and
// sync mark. Unlike receiveMigrant it touches no LB-step counters —
// evacuation is not part of any step. If this PE was itself revoked while
// the evacuee was in flight, the object is bounced to another live PE.
func (p *pe) receiveEvacuee(rec *chareRec, bytes int) {
	r := p.rts
	if p.retired {
		pending := make(map[int]int)
		dst := r.pickEvacDest(p.index, pending)
		rec.loc = dst
		d := r.pes[dst]
		d.evacIn++
		p.evacIn--
		r.cfg.Net.Send(p.core.ID, d.core.ID, bytes+migrateHeader, func() {
			d.enqueueSys(func() { d.receiveEvacuee(rec, bytes) })
		})
		return
	}
	p.runBurst(float64(bytes)*packCPUPerByte, func() {
		p.install(rec)
		p.evacIn--
		p.resumeEnded(rec)
		if p.evacIn == 0 && r.cfg.Strategy != nil {
			// The last inbound evacuee has landed: this PE's sync
			// completes if its chares, the evacuees included, have all
			// synced or are Done. A synced evacuee's messages stay held
			// until Resume.
			p.checkSync()
		}
	})
}
