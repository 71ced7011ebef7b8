package service

import (
	"bytes"
	"context"
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
// must serialize the identical filtered snapshot — host-time series
// (real seconds inside Strategy.Plan, shard barrier waits) are excluded,
// everything virtual is bit-reproducible.
func TestMetricsArtifactReproducible(t *testing.T) {
	a := metricsArtifact(t, compareRequest(), 1)
	sameBytes(t, a, metricsArtifact(t, compareRequest(), 1))
	if bytes.Contains(a, []byte("charm_lb_strategy_wall_seconds_total")) {
		t.Fatal("host-time series leaked into the metrics artifact")
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
