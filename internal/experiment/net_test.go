package experiment

import (
	"context"
	"fmt"
	"testing"

	"cloudlb/internal/metrics"
	"cloudlb/internal/xnet"
)

// TestScenarioNetLookaheadConsistency is the regression test for the
// config/lookahead desync: Run must derive the sharded scheduler's
// lookahead from the same resolved network config the Network is built
// from. Before the consolidation, a scenario network with any latency
// below the hardcoded default would have run shards with a too-large
// lookahead — silently non-conservative windows. xnet.New now panics on
// that mismatch, so simply completing these runs proves consistency.
func TestScenarioNetLookaheadConsistency(t *testing.T) {
	for _, net := range []xnet.Config{
		{InterNodeLatency: 10e-6},                             // 5x faster than the default lookahead
		{InterNodeLatency: 200e-6},                            // slower than the default
		{Links: []xnet.Link{{Src: 0, Dst: 1, Latency: 5e-6}}}, // one fast link drags the minimum down
		{StragglerNodes: []int{1}, StragglerFactor: 8},        // stragglers only raise latencies
	} {
		r := Run(Scenario{
			App: Wave2D, Cores: 8, Strategy: NoLB,
			Seed: 1, Scale: quickScale, Shards: 2, Net: net,
		})
		if r.AppWall <= 0 {
			t.Errorf("Net %+v: bad wall %v", net, r.AppWall)
		}
	}
}

// TestZeroNetMatchesExplicitDefault pins Resolved's contract at the
// scenario level: an unset Net and a spelled-out DefaultConfig are the
// same network, bit for bit.
func TestZeroNetMatchesExplicitDefault(t *testing.T) {
	s := Scenario{App: Jacobi2D, Cores: 8, Strategy: Refine, BG: BGWave2D, Seed: 3, Scale: quickScale}
	base := Run(s)
	s.Net = xnet.DefaultConfig()
	if got := Run(s); got != base {
		t.Fatalf("explicit DefaultConfig diverged from zero Net:\n got %+v\nwant %+v", got, base)
	}
}

// TestLossyNetResultCounters checks the loss plumbing end to end: a lossy
// scenario reports its drops and retransmits both in the Result and in
// the metrics registry, and the NIC busy-time series moves.
func TestLossyNetResultCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	r := Run(Scenario{
		App: Wave2D, Cores: 8, Strategy: Refine, BG: BGWave2D,
		Seed: 5, Scale: quickScale, Metrics: reg,
		Net: xnet.Config{DropPct: 5, Seed: 11},
	})
	if r.NetDrops == 0 || r.NetRetransmits != r.NetDrops {
		t.Fatalf("drops/retransmits = %d/%d, want equal and > 0", r.NetDrops, r.NetRetransmits)
	}
	vals := make(map[string]float64)
	for _, s := range reg.Gather().Series {
		vals[s.Name] = s.Value
	}
	if vals["xnet_drops_total"] != float64(r.NetDrops) {
		t.Errorf("xnet_drops_total = %v, want %d", vals["xnet_drops_total"], r.NetDrops)
	}
	if vals["xnet_retransmits_total"] != float64(r.NetRetransmits) {
		t.Errorf("xnet_retransmits_total = %v, want %d", vals["xnet_retransmits_total"], r.NetRetransmits)
	}
	if vals["xnet_link_busy_seconds"] <= 0 {
		t.Errorf("xnet_link_busy_seconds = %v, want > 0", vals["xnet_link_busy_seconds"])
	}

	reliable := Run(Scenario{
		App: Wave2D, Cores: 8, Strategy: Refine, BG: BGWave2D,
		Seed: 5, Scale: quickScale,
	})
	if reliable.NetDrops != 0 || reliable.NetRetransmits != 0 {
		t.Fatalf("reliable run reported drops: %+v", reliable)
	}
}

// TestSpecNetReachesEveryMethod: a Spec's Net is part of the scenario
// for every method, not only Scenarios and NetworkInterference. A lossy
// straggler network must move each method's rows away from the reliable
// Spec's — otherwise the service would cache and serve reliable-network
// rows under the lossy Spec's hash.
func TestSpecNetReachesEveryMethod(t *testing.T) {
	ctx := context.Background()
	lossy := xnet.Config{DropPct: 10, Seed: 7, StragglerNodes: []int{1}, StragglerFactor: 8}
	two := []StrategyKind{NoLB, Refine}
	methods := []struct {
		name string
		spec Spec
		run  func(Spec) (any, error)
	}{
		{"evaluate", Spec{App: Wave2D, Cores: []int{8}, Seeds: []int64{1}, Scale: 0.05},
			func(sp Spec) (any, error) { return sp.Evaluate(ctx, Options{}) }},
		{"compare", Spec{App: Wave2D, Cores: []int{8}, Seeds: []int64{1}, Scale: 0.05, Strategies: two},
			func(sp Spec) (any, error) { return sp.CompareStrategies(ctx, Options{}) }},
		{"sweep", Spec{App: Wave2D, Cores: []int{8}, Seeds: []int64{1}, Scale: 0.05,
			EpsFracs: []float64{0.02}, Periods: []int{10}},
			func(sp Spec) (any, error) { return sp.SweepRefineParams(ctx, Options{}) }},
		{"elasticity", Spec{App: Wave2D, Cores: []int{8}, Seeds: []int64{1}, Scale: 0.05, Strategies: two,
			Faults: Fig5Schedule(8, 0.05)},
			func(sp Spec) (any, error) { return sp.Elasticity(ctx, Options{}) }},
		{"net", Spec{App: Wave2D, Cores: []int{8}, Seeds: []int64{1}, Scale: 0.05, Strategies: two,
			DropPcts: []float64{0}, StraggleFactors: []float64{1}},
			func(sp Spec) (any, error) { return sp.NetworkInterference(ctx, Options{}) }},
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			reliable, err := m.run(m.spec)
			if err != nil {
				t.Fatal(err)
			}
			sp := m.spec
			sp.Net = lossy
			got, err := m.run(sp)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", got) == fmt.Sprintf("%+v", reliable) {
				t.Fatalf("lossy Spec.Net left the rows unchanged: %+v", got)
			}
		})
	}
}

// cancelSpec is a small two-scenario batch for the cancellation tests.
func cancelSpec() Spec {
	return Spec{App: Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1}
}

// TestOptionsCancellation drives a pre-cancelled context through both
// Options.run dispatch paths — default sequential (RunAll) and an
// Executor — and requires each to stop before running a scenario and
// surface the context error.
func TestOptionsCancellation(t *testing.T) {
	paths := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{}},
		{"executor", Options{Executor: RunAll}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			out, err := cancelSpec().Evaluate(ctx, p.opts)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if out != nil {
				t.Fatalf("results returned despite cancellation: %v", out)
			}
		})
	}
}
