package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
)

// compareRequest is a compare job of two scenarios, NoLB and RefineLB.
func compareRequest() Request {
	return Request{Method: "compare", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4},
		Strategies: []experiment.StrategyKind{experiment.NoLB, experiment.Refine},
		Seeds:      []int64{1}, Scale: 0.05}}
}

// metricsArtifact executes req on a per-job pool of the given width and
// returns its metrics.json bytes.
func metricsArtifact(t *testing.T, req Request, workers int) []byte {
	t.Helper()
	reg := metrics.NewRegistry()
	if _, err := execute(context.Background(), req, reg, workers, nil); err != nil {
		t.Fatal(err)
	}
	b, err := deterministicMetricsJSON(reg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameBytes fails the test at the first line where a and b differ.
func sameBytes(t *testing.T, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i < len(bl) && !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("metrics.json differs at line %d:\n  %s\n  %s", i, al[i], bl[i])
		}
	}
	t.Fatal("metrics.json differs in length")
}

// TestMetricsArtifactReproducible pins the metrics.json determinism the
// content-addressed store leans on: two executions of the same request
// must serialize the identical filtered snapshot — host time (real
// seconds inside Strategy.Plan, as a series and as each LB-step row's
// strategy_wall) is excluded, everything virtual is bit-reproducible.
// The artifact carries one row per LB step.
func TestMetricsArtifactReproducible(t *testing.T) {
	a := metricsArtifact(t, compareRequest(), 1)
	sameBytes(t, a, metricsArtifact(t, compareRequest(), 1))
	if bytes.Contains(a, []byte("charm_lb_strategy_wall_seconds_total")) {
		t.Fatal("host-time series leaked into the metrics artifact")
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	steps := 0.0
	for _, s := range snap.Series {
		if s.Name == "charm_lb_steps_total" {
			steps += s.Value
		}
	}
	if steps == 0 || float64(len(snap.LBSteps)) != steps {
		t.Fatalf("metrics artifact carries %d LB-step rows for %v LB steps", len(snap.LBSteps), steps)
	}
	for _, s := range snap.LBSteps {
		if s.StrategyWall != 0 {
			t.Fatalf("host-time strategy_wall %v leaked into LB-step row %+v", s.StrategyWall, s.Labels)
		}
	}
}

// TestMetricsArtifactWorkerInvariant: each scenario of a job writes its
// own series, so metrics.json is the same whether the job's scenarios ran
// one after the other or side by side. The 16-core scenario comes first
// and runs longer, so side by side it finishes last — the opposite of the
// sequential order, which a last-writer-wins series would expose.
func TestMetricsArtifactWorkerInvariant(t *testing.T) {
	req := Request{Method: "scenarios", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{16, 4},
		Strategies: []experiment.StrategyKind{experiment.Refine}, Seeds: []int64{1}, Scale: 0.05}}
	sameBytes(t, metricsArtifact(t, req, 1), metricsArtifact(t, req, 2))
}
