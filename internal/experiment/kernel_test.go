package experiment

import (
	"fmt"
	"math/rand"
	"testing"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/trace"
)

// TestKernelWorkerInvariantOnRandomSpecs runs the random Specs of
// TestShardCountInvariantOnRandomSpecs (the same generator and -shardspec
// flags) on one shard without and with a kernel worker, and requires the
// same Result, metric snapshot and LB-step rows less host time, and
// trace from both: the worker only moves where the applications'
// deferred kernels run. The worker run's sim-drive span must show its
// tails ran through the worker's join path.
func TestKernelWorkerInvariantOnRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(*shardSpecSeed))
	specs := []Spec{shardSpecRepro}
	for i := 0; i < *shardSpecCases; i++ {
		specs = append(specs, randomSpec(rng, *shardSpecMaxDrop, *shardSpecMaxCores))
	}
	run := func(s Scenario) (outcome, map[string]any) {
		rec, reg, tr := trace.NewRecorder(), metrics.NewRegistry(), obs.NewTrace("kernel", nil)
		s.Trace, s.Metrics, s.Obs = rec, reg, tr
		res := Run(s)
		var drive map[string]any
		for _, sp := range tr.Spans() {
			if sp.Cat == obs.CatSim && sp.Name == "sim-drive" {
				drive = sp.Args
			}
		}
		return outcome{res: res, vals: metricValues(reg, HostTimeSeries), steps: lbRows(reg), hash: traceHash(rec)}, drive
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Fatalf("case %d: generator drew an invalid Spec: %v", i, err)
		}
		s := sp.Scenarios()[0]
		s.Shards = 1
		name := fmt.Sprintf("case %d (%v %dc %v bg=%d hier=%v drop=%.1f%% straggle=%v faults=%v)",
			i, s.App, s.Cores, s.Strategy, s.BG, s.Hierarchical, s.Net.DropPct, s.Net.StragglerNodes, s.Faults)
		base, args := run(s)
		if args["kernel_worker"] != false {
			t.Errorf("%s: sim-drive span args %v, want kernel_worker false", name, args)
		}
		s.kernelWorker = true
		got, args := run(s)
		diffOutcomes(t, name+" kernel worker", got, base)
		worker, _ := args["deferred_worker"].(uint64)
		joined, _ := args["deferred_joined"].(uint64)
		if args["kernel_worker"] != true || worker+joined == 0 {
			t.Errorf("%s: sim-drive span args %v, want a kernel worker that ran tails", name, args)
		}
	}
}
