package charm

import (
	"strings"
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/lb"
	"cloudlb/internal/metrics"
)

// metricsWorld runs a small imbalanced workload under the given strategy
// with telemetry attached and returns the runtime and registry.
func metricsWorld(t *testing.T, strategy core.Strategy, hier bool) (*RTS, *metrics.Registry) {
	t.Helper()
	eng, m, n := testWorld(1, 4)
	reg := metrics.NewRegistry()
	r := NewRTS(Config{
		Machine: m, Net: n, Cores: allCores(m),
		Strategy:       strategy,
		HierarchicalLB: hier,
		Metrics:        reg,
	})
	// Fine-grained over-decomposition (8 chares per PE) with one 5x-heavy
	// chare: PE 0 exceeds T_avg+eps while a single light chare still fits
	// under it elsewhere, so the balancers migrate for real.
	r.NewArray("w", 32, func(i int) Chare {
		cost := 0.01
		if i == 0 {
			cost = 0.05
		}
		return &iterChare{iters: 40, cost: cost, syncEvery: 10}
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	return r, reg
}

// counterValue digs one series out of a snapshot by name + label subset.
func counterValue(t *testing.T, snap metrics.Snapshot, name string, labels ...metrics.Label) float64 {
	t.Helper()
	for _, s := range snap.Series {
		if s.Name != name {
			continue
		}
		match := true
		for _, want := range labels {
			found := false
			for _, l := range s.Labels {
				if l == want {
					found = true
					break
				}
			}
			if !found {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("series %s%v not found", name, labels)
	return 0
}

// TestMetricsMatchRunCounters cross-checks the registry against the
// RTS's own counters and the step log under each AtSync protocol: the
// exported series must agree with what the run actually did, and every
// step's window must be the T_lb its measurements cover.
func TestMetricsMatchRunCounters(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy core.Strategy
		hier     bool
	}{
		{"flat", &core.RefineLB{EpsilonFrac: 0.02}, false},
		{"hier", &core.RefineLB{EpsilonFrac: 0.02}, true},
		{"diffusion", &lb.DiffusionLB{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, reg := metricsWorld(t, tc.strategy, tc.hier)
			snap := reg.Gather()
			rts := metrics.L("rts", "rts")

			if got := counterValue(t, snap, "charm_lb_steps_total", rts); got != float64(r.LBSteps()) {
				t.Errorf("charm_lb_steps_total = %v, RTS reports %d", got, r.LBSteps())
			}
			if got := counterValue(t, snap, "charm_lb_migrations_total", rts); got != float64(r.Migrations()) {
				t.Errorf("charm_lb_migrations_total = %v, RTS reports %d", got, r.Migrations())
			}
			if r.Migrations() == 0 {
				t.Fatal("workload produced no migrations; test needs imbalance")
			}
			// One AtSync barrier entry per PE per LB step.
			if got := counterValue(t, snap, "charm_atsync_total", rts); got != float64(r.LBSteps()*r.NumPEs()) {
				t.Errorf("charm_atsync_total = %v, want steps*PEs = %d", got, r.LBSteps()*r.NumPEs())
			}

			// The step log has one row per step, labeled with the
			// runtime's series labels; per-step applied moves must sum to
			// the total migration count, matching the run's trace.
			steps, total := reg.LBSteps(0)
			if total != r.LBSteps() {
				t.Fatalf("step-log rows = %d, LB steps = %d", total, r.LBSteps())
			}
			applied, rounds := 0, 0.0
			for i, step := range steps {
				if step.Step != i+1 {
					t.Errorf("step-log row %d has step number %d", i, step.Step)
				}
				if len(step.Labels) != 1 || step.Labels[0] != rts {
					t.Errorf("step-log row %d labeled %v, want [%v]", i, step.Labels, rts)
				}
				// The window rule: step 1 measured from the run's start;
				// every later step from its earliest resume, which follows
				// the previous step's last arrival.
				if i == 0 && step.WallSinceLB != step.Time {
					t.Errorf("step 1: wall_since_lb %v, want its time %v", step.WallSinceLB, step.Time)
				}
				if i > 0 && (step.WallSinceLB <= 0 || step.WallSinceLB > step.Time-steps[i-1].Time) {
					t.Errorf("step %d: wall_since_lb %v outside (0, %v], time %v", step.Step,
						step.WallSinceLB, step.Time-steps[i-1].Time, step.Time)
				}
				applied += step.MovesApplied
				if step.MovesPlanned < step.MovesApplied {
					t.Errorf("step %d: planned %d < applied %d", step.Step, step.MovesPlanned, step.MovesApplied)
				}
				if len(step.PELoadBefore) != r.NumPEs() || len(step.PELoadAfter) != r.NumPEs() || len(step.PEBackground) != r.NumPEs() {
					t.Errorf("step %d: load vectors sized %d/%d/%d, want %d",
						step.Step, len(step.PELoadBefore), len(step.PELoadAfter), len(step.PEBackground), r.NumPEs())
				}
				// The per-step migration gauge mirrors the step-log row.
				if got := counterValue(t, snap, "charm_lb_step_migrations", rts, metrics.L("step", itoa(step.Step))); got != float64(step.MovesApplied) {
					t.Errorf("charm_lb_step_migrations{step=%d} = %v, step log says %d", step.Step, got, step.MovesApplied)
				}
				// Moves conserve load: total before == total after (same tasks,
				// same background, just reassigned).
				var before, after float64
				for pe := 0; pe < r.NumPEs(); pe++ {
					before += step.PELoadBefore[pe]
					after += step.PELoadAfter[pe]
				}
				if d := before - after; d > 1e-9 || d < -1e-9 {
					t.Errorf("step %d: load not conserved, before %v after %v", step.Step, before, after)
				}
				if _, ok := tc.strategy.(core.DistributedStrategy); ok {
					got := counterValue(t, snap, "charm_lb_step_rounds", rts, metrics.L("step", itoa(step.Step)))
					if got < 1 {
						t.Errorf("charm_lb_step_rounds{step=%d} = %v, want >= 1", step.Step, got)
					}
					rounds += got
				}
			}
			if applied != r.Migrations() {
				t.Errorf("step-log applied moves sum to %d, RTS reports %d", applied, r.Migrations())
			}
			if got := counterValue(t, snap, "charm_lb_rounds_total", rts); got != rounds {
				t.Errorf("charm_lb_rounds_total = %v, per-step rounds sum to %v", got, rounds)
			}
			// The per-PE gauges hold the last step's vectors.
			last := steps[len(steps)-1]
			for pe := 0; pe < r.NumPEs(); pe++ {
				l := metrics.L("pe", itoa(pe))
				if got := counterValue(t, snap, "charm_pe_load_before_seconds", rts, l); got != last.PELoadBefore[pe] {
					t.Errorf("charm_pe_load_before_seconds{pe=%d} = %v, last step says %v", pe, got, last.PELoadBefore[pe])
				}
				if got := counterValue(t, snap, "charm_pe_load_after_seconds", rts, l); got != last.PELoadAfter[pe] {
					t.Errorf("charm_pe_load_after_seconds{pe=%d} = %v, last step says %v", pe, got, last.PELoadAfter[pe])
				}
			}

			// Per-PE background series exist for every PE and message
			// counters saw traffic.
			for pe := 0; pe < r.NumPEs(); pe++ {
				counterValue(t, snap, "charm_pe_background_seconds_total", rts, metrics.L("pe", itoa(pe)))
			}
			if got := counterValue(t, snap, "charm_messages_sent_total", rts); got <= 0 {
				t.Errorf("charm_messages_sent_total = %v, want > 0", got)
			}
			if got := counterValue(t, snap, "charm_messages_pooled_total", rts); got <= 0 {
				t.Errorf("charm_messages_pooled_total = %v, want > 0 (free list never hit)", got)
			}

			// The Prometheus export carries the acceptance-critical series.
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, want := range []string{"charm_pe_background_seconds_total", "charm_lb_step_migrations", "charm_lb_strategy_wall_seconds_total"} {
				if !strings.Contains(out, want) {
					t.Errorf("Prometheus export missing %s", want)
				}
			}
		})
	}
}

func itoa(i int) string {
	if i < 0 || i > 99 {
		panic("itoa: test helper range")
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestMessageSteadyStateAllocFreeWithMetrics is the enabled-registry
// companion of TestMessageSteadyStateAllocFree: once series handles are
// registered, counter updates on the steady message path are atomic adds
// and must not allocate either.
func TestMessageSteadyStateAllocFreeWithMetrics(t *testing.T) {
	eng, m, n := testWorld(2, 1)
	reg := metrics.NewRegistry()
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Metrics: reg})
	r.NewArray("p", 2, func(i int) Chare {
		return &echoChare{peer: ChareID{Array: "p", Index: 1 - i}}
	})
	r.Start()
	for i := 0; i < 2000; i++ {
		if !eng.Step() {
			t.Fatal("engine drained during warm-up")
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if !eng.Step() {
				t.Fatal("engine drained mid-measurement")
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state messaging with metrics: %.2f allocs per 100 events, want 0", avg)
	}
	if got := reg.Gather(); len(got.Series) == 0 {
		t.Error("enabled registry gathered no series")
	}
}
