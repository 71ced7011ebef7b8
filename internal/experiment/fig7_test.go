package experiment

import (
	"context"
	"strconv"
	"testing"

	"cloudlb/internal/metrics"
)

// TestFig7ReadsEachRowsSeries runs Fig7 on an executor that simulates
// nothing: it writes known rounds, peak-state and planning-time values
// into each scenario's registry. The caller's registry already holds
// same-named series of an earlier figure's scenario 0. Each row must read
// back only its own values, and every row's series must land in the
// caller's registry under its fig7 label.
func TestFig7ReadsEachRowsSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	rts := metrics.L("rts", "app")
	earlier := reg.With(metrics.L("scenario", "0"))
	earlier.Counter("charm_lb_rounds_total", "", rts).Add(1000)
	earlier.Gauge("charm_lb_peak_state_bytes", "", rts, metrics.L("pe", "0")).Set(1e9)
	earlier.FloatCounter("charm_lb_strategy_wall_seconds_total", "", rts).Add(99)

	exec := func(_ context.Context, batch []Scenario) ([]Result, error) {
		out := make([]Result, len(batch))
		for i, s := range batch {
			s.Metrics.Counter("charm_lb_rounds_total", "", rts).Add(uint64(10 * (i + 1)))
			for pe := 0; pe < 2; pe++ {
				s.Metrics.Gauge("charm_lb_peak_state_bytes", "", rts, metrics.L("pe", strconv.Itoa(pe))).
					Set(float64(100*(i+1) + pe))
			}
			s.Metrics.FloatCounter("charm_lb_strategy_wall_seconds_total", "", rts).Add(float64(i+1) / 4)
			out[i] = Result{AppWall: float64(i + 1), LBSteps: 3}
		}
		return out, nil
	}
	evals, err := Fig7(context.Background(), Options{Executor: exec, Metrics: reg}, Spec{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != len(fig7Rows) {
		t.Fatalf("%d rows, want %d", len(evals), len(fig7Rows))
	}
	for i, e := range evals {
		if e.Label != fig7Rows[i].Label || e.Wall != float64(i+1) || e.Rounds != 10*(i+1) ||
			e.PeakStateBytes != 100*(i+1)+1 || e.PlanHostSeconds != float64(i+1)/4 {
			t.Errorf("row %d = %+v; want wall %d, rounds %d, peak %d B, plan %v s",
				i, e, i+1, 10*(i+1), 100*(i+1)+1, float64(i+1)/4)
		}
	}

	rows := map[string]int{}
	for _, s := range reg.Gather().Series {
		for _, l := range s.Labels {
			if l.Name == "fig7" {
				rows[l.Value]++
			}
		}
	}
	for _, row := range fig7Rows {
		if rows[row.Label] != 4 {
			t.Errorf("caller's registry holds %d series labeled fig7=%s, want 4", rows[row.Label], row.Label)
		}
	}
}
