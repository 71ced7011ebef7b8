package main

import (
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
)

// layerAcc collects per-op samples of per-layer metrics; finish reduces
// each to its median (heap depth to its maximum).
type layerAcc map[string][]float64

func (a layerAcc) add(name string, v float64) { a[name] = append(a[name], v) }

func (a layerAcc) finish() map[string]float64 {
	out := make(map[string]float64, len(a))
	for name, vs := range a {
		if name == "sim.heap_depth_max" {
			out[name] = sorted(vs)[len(vs)-1]
			continue
		}
		out[name] = median(vs)
	}
	return out
}

// ratio is num/den, 0 over an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// seriesSum adds up every label set of one registry series.
func seriesSum(snap metrics.Snapshot, name string) float64 {
	var v float64
	for _, s := range snap.Series {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// registryOp records the counts one op left in its registry: engine
// events and heap depth, the charm message path and LB activity, and
// xnet retransmits. Retransmits are taken over application messages
// sent, the base the network carries them for.
func (a layerAcc) registryOp(snap metrics.Snapshot) (events float64) {
	events = seriesSum(snap, "sim_events_total")
	a.add("sim.events_per_op", events)
	var depth float64
	for _, s := range snap.Series {
		if s.Name == "sim_event_heap_depth_max" && s.Value > depth {
			depth = s.Value
		}
	}
	a.add("sim.heap_depth_max", depth)
	sent := seriesSum(snap, "charm_messages_sent_total")
	a.add("charm.messages_per_op", sent)
	a.add("charm.pooled_ratio", ratio(seriesSum(snap, "charm_messages_pooled_total"), sent))
	a.add("charm.migrations_per_op", seriesSum(snap, "charm_lb_migrations_total"))
	a.add("charm.lb_steps_per_op", seriesSum(snap, "charm_lb_steps_total"))
	a.add("charm.lb_rounds_per_op", seriesSum(snap, "charm_lb_rounds_total"))
	retx := seriesSum(snap, "xnet_retransmits_total")
	a.add("xnet.retransmits_per_op", retx)
	a.add("xnet.retransmit_ratio", ratio(retx, sent))
	return events
}

// scenarioOp records one traced scenario op: its registry and the spans
// the runner and the engine recorded. Each scenario has its own span row
// (TID), so its build time is its run span minus its sim-drive span.
func (a layerAcc) scenarioOp(snap metrics.Snapshot, spans []obs.Span, wall time.Duration, busy int) {
	events := a.registryOp(snap)
	a.add("charm.lb_plan_s_per_op", seriesSum(snap, "charm_lb_strategy_wall_seconds_total"))
	type row struct{ run, drive float64 }
	rows := map[int]*row{}
	var run, drive float64
	for _, sp := range spans {
		r := rows[sp.TID]
		if r == nil {
			r = &row{}
			rows[sp.TID] = r
		}
		switch {
		case sp.Cat == obs.CatScenario && sp.Name == "run":
			r.run += sp.Dur.Seconds()
			run += sp.Dur.Seconds()
		case sp.Cat == obs.CatSim && sp.Name == "sim-drive":
			r.drive += sp.Dur.Seconds()
			drive += sp.Dur.Seconds()
		}
	}
	for _, r := range rows {
		if r.run > 0 {
			a.add("experiment.build_ms", (r.run-r.drive)*1e3)
		}
	}
	a.add("sim.drive_events_per_s", ratio(events, drive))
	a.add("runner.worker_util", ratio(run, wall.Seconds()*float64(busy)))
}

// summaryTotal is the total seconds of one (cat, name) row of a job
// view's span summary.
func summaryTotal(rows []obs.SummaryRow, cat, name string) float64 {
	for _, r := range rows {
		if r.Cat == cat && r.Name == name {
			return r.TotalSeconds
		}
	}
	return 0
}

// computedJob records one computed service job from its finished view's
// span summary and its metrics.json artifact.
func (a layerAcc) computedJob(rows []obs.SummaryRow, snap metrics.Snapshot) {
	events := a.registryOp(snap)
	// metrics.json omits host-time series; the LB-step spans carry the
	// strategy's planning wall instead.
	a.add("charm.lb_plan_s_per_op", summaryTotal(rows, obs.CatLB, "lb-step"))
	run := summaryTotal(rows, obs.CatScenario, "run")
	drive := summaryTotal(rows, obs.CatSim, "sim-drive")
	a.add("experiment.build_ms", (run-drive)*1e3)
	a.add("sim.drive_events_per_s", ratio(events, drive))
	a.add("service.queue_wait_ms", summaryTotal(rows, obs.CatJob, "queue-wait")*1e3)
	a.add("service.execute_ms", summaryTotal(rows, obs.CatJob, "execute")*1e3)
	// The service runs each job's batch on one worker.
	a.add("runner.worker_util", ratio(run, summaryTotal(rows, obs.CatJob, "execute")))
}
