package charm

import (
	"strconv"
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/sim"
)

// rtsMetrics holds the runtime's telemetry handles. The zero value is the
// disabled state: every handle is nil and nil handles are no-ops, so the
// hot paths (send, envelope pooling, stats measurement) update them
// unconditionally at the cost of one inlined nil check. The cold LB-step
// path additionally builds a per-step record (see lbStepInstr), but only
// when a registry is attached.
type rtsMetrics struct {
	reg      *metrics.Registry
	rtsLabel metrics.Label

	msgsSent     *metrics.Counter
	msgsPooled   *metrics.Counter
	atSync       *metrics.Counter
	lbSteps      *metrics.Counter
	lbRounds     *metrics.Counter
	movesPlanned *metrics.Counter
	migrations   *metrics.Counter
	evacuations  *metrics.Counter
	strategyWall *metrics.FloatCounter

	// Per-PE series, indexed by PE. Empty when disabled.
	peBackground []*metrics.FloatCounter
	peTask       []*metrics.FloatCounter
	peLoadBefore []*metrics.Gauge
	peLoadAfter  []*metrics.Gauge
	// pePeakState tracks the high-water bytes of LB planning state each PE
	// held: gathered stats on the master under a centralized strategy,
	// planner state everywhere under a distributed one. peakSeen is the
	// monotone mirror so the gauge only ever rises.
	pePeakState []*metrics.Gauge
	peakSeen    []float64
}

// newRTSMetrics registers this runtime's series. A nil reg returns the
// all-no-op zero value.
func newRTSMetrics(reg *metrics.Registry, name string, numPEs int) rtsMetrics {
	if reg == nil {
		return rtsMetrics{}
	}
	m := rtsMetrics{reg: reg, rtsLabel: metrics.L("rts", name)}
	m.msgsSent = reg.Counter("charm_messages_sent_total",
		"Application messages routed between chares.", m.rtsLabel)
	m.msgsPooled = reg.Counter("charm_messages_pooled_total",
		"Message envelopes served from the free list instead of the heap.", m.rtsLabel)
	m.atSync = reg.Counter("charm_atsync_total",
		"Per-PE AtSync barrier entries (one per PE per LB step).", m.rtsLabel)
	m.lbSteps = reg.Counter("charm_lb_steps_total",
		"Completed load balancing steps.", m.rtsLabel)
	m.lbRounds = reg.Counter("charm_lb_rounds_total",
		"Neighbor-exchange rounds executed across distributed LB steps.", m.rtsLabel)
	m.movesPlanned = reg.Counter("charm_lb_moves_planned_total",
		"Migrations proposed by the strategy, including no-op moves.", m.rtsLabel)
	m.migrations = reg.Counter("charm_lb_migrations_total",
		"Objects actually migrated (no-op moves dropped).", m.rtsLabel)
	m.evacuations = reg.Counter("charm_evacuations_total",
		"Emergency evacuations of chares off revoked or failed PEs.", m.rtsLabel)
	m.strategyWall = reg.FloatCounter("charm_lb_strategy_wall_seconds_total",
		"Real (host) seconds spent inside Strategy.Plan.", m.rtsLabel)
	m.peBackground = make([]*metrics.FloatCounter, numPEs)
	m.peTask = make([]*metrics.FloatCounter, numPEs)
	m.peLoadBefore = make([]*metrics.Gauge, numPEs)
	m.peLoadAfter = make([]*metrics.Gauge, numPEs)
	m.pePeakState = make([]*metrics.Gauge, numPEs)
	m.peakSeen = make([]float64, numPEs)
	for i := 0; i < numPEs; i++ {
		pe := metrics.L("pe", strconv.Itoa(i))
		m.peBackground[i] = reg.FloatCounter("charm_pe_background_seconds_total",
			"Background load O_p (paper Eq. 2) accumulated over LB intervals.", m.rtsLabel, pe)
		m.peTask[i] = reg.FloatCounter("charm_pe_task_seconds_total",
			"Measured task wall seconds accumulated over LB intervals.", m.rtsLabel, pe)
		m.peLoadBefore[i] = reg.Gauge("charm_pe_load_before_seconds",
			"Per-PE load (tasks + background) entering the latest LB step.", m.rtsLabel, pe)
		m.peLoadAfter[i] = reg.Gauge("charm_pe_load_after_seconds",
			"Per-PE load (tasks + background) after the latest step's moves.", m.rtsLabel, pe)
		m.pePeakState[i] = reg.Gauge("charm_lb_peak_state_bytes",
			"High-water bytes of LB planning state held on this PE.", m.rtsLabel, pe)
	}
	return m
}

// peakState raises a PE's planning-state high-water mark.
func (m *rtsMetrics) peakState(pe, bytes int) {
	if len(m.pePeakState) == 0 {
		return
	}
	if f := float64(bytes); f > m.peakSeen[pe] {
		m.peakSeen[pe] = f
		m.pePeakState[pe].Set(f)
	}
}

// measured records one PE's interval measurement (Eq. 2 inputs).
func (m *rtsMetrics) measured(pe int, taskSeconds, background float64) {
	m.atSync.Inc()
	if len(m.peBackground) > 0 {
		m.peBackground[pe].Add(background)
		m.peTask[pe].Add(taskSeconds)
	}
}

// lbStepInstr builds one LB step's record under every AtSync protocol —
// the flat gather, the tree gather and DiffusionLB alike. Its inputs are
// each PE's measured load and O_p as they reach PE 0, the window they
// cover, each plan's host time and proposed moves, and each applied
// move's load; stepDone publishes it. PELoadAfter is the working load
// vector: it starts as the before vector and every applied move shifts
// it. A nil *lbStepInstr (no registry) ignores every call.
type lbStepInstr struct {
	metrics.LBStep
}

// beginStep starts step stepNo's record, or returns nil when
// instrumentation is disabled.
func (m *rtsMetrics) beginStep(stepNo, numPEs int) *lbStepInstr {
	if m.reg == nil {
		return nil
	}
	return &lbStepInstr{metrics.LBStep{
		Step:         stepNo,
		PEBackground: make([]float64, numPEs),
		PELoadBefore: make([]float64, numPEs),
		PELoadAfter:  make([]float64, numPEs),
	}}
}

// arrived records one PE's measurement: its load (tasks plus O_p) and
// its background load O_p.
func (in *lbStepInstr) arrived(pe int, load, bg float64) {
	if in == nil {
		return
	}
	in.PEBackground[pe] = bg
	in.PELoadBefore[pe] = load
	in.PELoadAfter[pe] = load
}

// window records when the last measurement arrived and the T_lb window
// the measurements cover.
func (in *lbStepInstr) window(now, tlb sim.Time) {
	if in == nil {
		return
	}
	in.Time = float64(now)
	in.WallSinceLB = float64(tlb)
}

// planned adds one plan's host wall time and proposed move count.
func (in *lbStepInstr) planned(wall time.Duration, moves int) {
	if in == nil {
		return
	}
	in.StrategyWall += wall.Seconds()
	in.MovesPlanned += moves
}

// moved shifts one applied move's load in the working vector.
func (in *lbStepInstr) moved(load float64, from, to int) {
	if in == nil {
		return
	}
	in.MovesApplied++
	in.PELoadAfter[from] -= load
	in.PELoadAfter[to] += load
}

// publishStep publishes a finished step's record: the planned, migrated,
// strategy-wall and round counters, the per-PE before/after gauges, the
// per-step series and the registry's step-log row, labeled with the
// runtime's series labels. rounds is the neighbor-exchange
// round count, 0 under the gathers (only DiffusionLB runs rounds, and it
// alone gets a per-step rounds series).
func (m *rtsMetrics) publishStep(in *lbStepInstr, rounds int) {
	if in == nil {
		return
	}
	s := in.LBStep
	m.movesPlanned.Add(uint64(s.MovesPlanned))
	m.migrations.Add(uint64(s.MovesApplied))
	m.strategyWall.Add(s.StrategyWall)
	m.lbRounds.Add(uint64(rounds))
	for pe := range s.PELoadBefore {
		m.peLoadBefore[pe].Set(s.PELoadBefore[pe])
		m.peLoadAfter[pe].Set(s.PELoadAfter[pe])
	}
	step := metrics.L("step", strconv.Itoa(s.Step))
	m.reg.Gauge("charm_lb_step_migrations",
		"Objects migrated at one LB step (one series per step).",
		m.rtsLabel, step).Set(float64(s.MovesApplied))
	if rounds > 0 {
		m.reg.Gauge("charm_lb_step_rounds",
			"Neighbor-exchange rounds one distributed LB step took.",
			m.rtsLabel, step).Set(float64(rounds))
	}
	m.reg.AppendLBStep(s, m.rtsLabel)
}
