package metrics

import (
	"fmt"
	"io"
	"sync"
)

// LBStep is one load-balancing step's telemetry: what the strategy saw,
// what it decided, and what the migration actually changed. PE-indexed
// slices are in core order and owned by the timeline (callers must not
// retain or mutate them after Append).
type LBStep struct {
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

// LBTimeline accumulates one LBStep per load-balancing step. A nil
// timeline is the disabled state: Append is a no-op, so the charm
// runtime records unconditionally. Appends are serialized internally:
// scenarios run in parallel may share one timeline, though steps then
// interleave across runs.
type LBTimeline struct {
	mu     sync.Mutex
	steps  []LBStep
	notify func(index int, s LBStep)
}

// Append records one step. Safe on a nil receiver (no-op). If a notify
// hook is set (SetNotify), it runs after the append on the appending
// goroutine, outside the timeline lock.
func (t *LBTimeline) Append(s LBStep) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.steps = append(t.steps, s)
	index, fn := len(t.steps)-1, t.notify
	t.mu.Unlock()
	if fn != nil {
		fn(index, s)
	}
}

// SetNotify registers fn to run after every Append with the new step and
// its index — the live-subscription hook behind the telemetry server's
// SSE stream. One hook at a time (nil clears it); fn runs on whatever
// goroutine appended, possibly several concurrently under the parallel
// runner, so it must be fast and thread-safe. Safe on a nil receiver.
func (t *LBTimeline) SetNotify(fn func(index int, s LBStep)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.notify = fn
	t.mu.Unlock()
}

// StepsSince returns a copy of the steps recorded at index from onward —
// the incremental read behind /api/v1/lbsteps?since=N. A negative or
// out-of-range from yields the full or empty slice respectively; nil on
// a nil receiver.
func (t *LBTimeline) StepsSince(from int) []LBStep {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(t.steps) {
		return []LBStep{}
	}
	return append([]LBStep(nil), t.steps[from:]...)
}

// Len reports the number of recorded steps (0 on a nil receiver).
func (t *LBTimeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.steps)
}

// Steps returns a copy of the recorded steps (nil on a nil receiver).
func (t *LBTimeline) Steps() []LBStep {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]LBStep(nil), t.steps...)
}

// WriteTable renders the timeline as an aligned text table: one row per
// LB step with the migration count, strategy wall time, and the min/max
// per-PE load before and after the step — enough to eyeball Fig. 3-style
// migration behaviour from a terminal.
func (t *LBTimeline) WriteTable(w io.Writer) error {
	steps := t.Steps()
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
