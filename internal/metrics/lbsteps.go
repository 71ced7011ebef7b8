package metrics

import (
	"fmt"
	"io"
	"slices"
)

// LBStep is one load-balancing step's telemetry: what the strategy saw,
// what it decided, and what the migration actually changed — the one
// per-step and per-PE record of Eq. 1 and Eq. 2. PE-indexed slices are
// in core order and owned by the registry's step log (callers must not
// retain or mutate them after AppendLBStep).
type LBStep struct {
	// Labels name the run the step belongs to: the labels of the
	// appending registry view plus those AppendLBStep was given, sorted
	// by name like a series' labels (rts=app, scenario=<batch index>).
	Labels []Label `json:"labels,omitempty"`
	// Step is the 1-based LB step number within the run.
	Step int `json:"step"`
	// Time is the virtual time (seconds) at which the step's measurement
	// window closed: PE 0's clock when the last PE's measurement arrived
	// (the plan instant under a gather, round 1 under DiffusionLB).
	Time float64 `json:"time"`
	// WallSinceLB is T_lb of Eq. 2, the window the step's loads and O_p
	// were measured over: Time minus the earliest PE's resume from the
	// previous step (run start for the first step).
	WallSinceLB float64 `json:"wall_since_lb"`
	// MovesPlanned / MovesApplied: strategy output before and after
	// dropping no-op moves.
	MovesPlanned int `json:"moves_planned"`
	MovesApplied int `json:"moves_applied"`
	// Rounds is the neighbor-exchange rounds a DiffusionLB step took;
	// 0 under the flat and tree gathers.
	Rounds int `json:"rounds"`
	// StrategyWall is real (host) seconds spent inside Strategy.Plan.
	StrategyWall float64 `json:"strategy_wall"`
	// PEBackground is the per-PE background load O_p (Eq. 2) measured
	// over the step's window, in virtual seconds.
	PEBackground []float64 `json:"pe_background"`
	// PELoadBefore / PELoadAfter are per-PE task loads (virtual seconds
	// of measured task time, plus background) before and after the
	// planned moves are applied — the strategy's own view of Eq. 1.
	PELoadBefore []float64 `json:"pe_load_before"`
	PELoadAfter  []float64 `json:"pe_load_after"`
}

// AppendLBStep adds one row to the registry's LB-step log, labeled with
// the view's labels plus labels. Gather, and so the JSON export, carries
// the rows; the Prometheus text does not. A hook set by OnLBStep runs
// after the append on the appending goroutine, outside the registry
// lock. Safe on a nil registry (no-op).
func (r *Registry) AppendLBStep(s LBStep, labels ...Label) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.AppendLBStep(s, slices.Concat(r.labels, labels)...)
		return
	}
	s.Labels = sortedLabels(labels)
	r.mu.Lock()
	r.steps = append(r.steps, s)
	index, fn := len(r.steps)-1, r.onStep
	r.mu.Unlock()
	if fn != nil {
		fn(index, s)
	}
}

// LBSteps returns a copy of the step log from index since onward and the
// log's length — the incremental read behind /api/v1/lbsteps?since=N. A
// negative since reads the whole log. A view reads its root's log.
func (r *Registry) LBSteps(since int) (steps []LBStep, total int) {
	if r == nil {
		return nil, 0
	}
	if r.parent != nil {
		return r.parent.LBSteps(since)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if since = max(since, 0); since < len(r.steps) {
		steps = slices.Clone(r.steps[since:])
	}
	return steps, len(r.steps)
}

// OnLBStep registers fn to run after every AppendLBStep with the new row
// and its index — the hook behind the telemetry server's SSE stream. One
// hook at a time (nil clears it). Pool workers append concurrently, so
// fn must be fast and thread-safe.
func (r *Registry) OnLBStep(fn func(index int, s LBStep)) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.OnLBStep(fn)
		return
	}
	r.mu.Lock()
	r.onStep = fn
	r.mu.Unlock()
}

// WriteLBSteps renders steps as an aligned text table: one row per LB
// step with the migration count, strategy wall time, and the min/max
// per-PE load before and after the step — enough to eyeball Fig. 3-style
// migration behaviour from a terminal.
func WriteLBSteps(w io.Writer, steps []LBStep) error {
	if _, err := fmt.Fprintf(w, "%4s %10s %10s %7s %7s %12s %21s %21s %10s\n",
		"step", "time", "window", "planned", "applied", "strategy_s",
		"load_before(min/max)", "load_after(min/max)", "bg(max)"); err != nil {
		return err
	}
	for _, s := range steps {
		b0, b1 := minMax(s.PELoadBefore)
		a0, a1 := minMax(s.PELoadAfter)
		_, bg := minMax(s.PEBackground)
		if _, err := fmt.Fprintf(w, "%4d %10.3f %10.3f %7d %7d %12.6f %10.3f/%10.3f %10.3f/%10.3f %10.3f\n",
			s.Step, s.Time, s.WallSinceLB, s.MovesPlanned, s.MovesApplied,
			s.StrategyWall, b0, b1, a0, a1, bg); err != nil {
			return err
		}
	}
	return nil
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
