package experiment

import (
	"reflect"
	"slices"
	"testing"

	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// FuzzNetConfig: for every Spec that ParseSpec and Validate accept, each
// network its scenarios run — the Spec's own, and each cell of the net
// method's drop × straggle sweep — resolves idempotently, and Run's
// construction of it (the scheduler's lookahead from the resolved
// config, then xnet.New on the smallest allocation's cluster) does not
// panic. Plain `go test` runs the seeds; `make fuzz` explores from them.
func FuzzNetConfig(f *testing.F) {
	for _, body := range []string{
		`{"app":"wave2d","cores":[8]}`,
		`{"app":"wave2d","cores":[8],"net":{"drop_pct":10,"seed":7,"straggler_nodes":[1],"straggler_factor":8}}`,
		`{"app":"wave2d","cores":[64,8],"net":{"links":[{"src":0,"dst":1,"latency":5e-06,"bandwidth":2e+08}],"inter_node_latency":0.0002}}`,
		// The net rows of TestValidateRejectsRunTimePanics.
		`{"app":"wave2d","cores":[8],"net":{"straggler_nodes":[99],"straggler_factor":4}}`,
		`{"app":"wave2d","cores":[64,8],"net":{"straggler_nodes":[1,8],"straggler_factor":4}}`,
		`{"app":"wave2d","cores":[32],"net":{"links":[{"src":0,"dst":9}]}}`,
		`{"app":"wave2d","cores":[8],"net":{"links":[{"src":0,"dst":1},{"src":2,"dst":2}]}}`,
		`{"app":"wave2d","cores":[8],"net":{"straggler_nodes":[1],"straggler_factor":1e309}}`,
		`{"app":"wave2d","cores":[8],"net":{"links":[{"src":0,"dst":1,"latency":-1e309}]}}`,
		`{"app":"wave2d","cores":[8],"net":{"inter_node_latency":1e308,"drop_pct":5}}`,
		`{"app":"wave2d","cores":[8],"net":{"inter_node_bandwidth":1e-300,"straggler_nodes":[1],"straggler_factor":1e100}}`,
		`{"app":"wave2d","cores":[8],"net":{"straggler_nodes":[1],"straggler_factor":1e-320}}`,
		`{"app":"wave2d","cores":[8],"drop_pcts":[0,5],"straggle_factors":[1,1e-320]}`,
		`{"app":"wave2d","cores":[8],"drop_pcts":[0,5],"straggle_factors":[1,16],"net":{"inter_node_latency":1e-300}}`,
		// NaN, which a float flag accepts and JSON does not.
		`{"app":"wave2d","cores":[8],"net":{"drop_pct":NaN}}`,
		`{"app":"wave2d","cores":[8],"net":{"drop_pct":"NaN"}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil || sp.Validate() != nil {
			return
		}
		// Validate has no upper bound on cores yet; a huge machine would
		// exhaust memory.
		cores := slices.Min(sp.Cores)
		if cores > 1024 {
			return
		}
		// The Spec's own network (every method's but net) and each
		// cell of the net method's sweep.
		batch := append(sp.Scenarios()[:1], NetworkScenarios(sp.App, cores, []StrategyKind{NoLB}, []int64{1}, 1,
			sp.DropPcts, sp.StraggleFactors, sp.Net)...)
		nodes := clusterNodes(cores)
		for _, s := range batch {
			r := s.Net.Resolved()
			if again := r.Resolved(); !reflect.DeepEqual(again, r) {
				t.Fatalf("Resolved is not idempotent on %s:\n once: %+v\ntwice: %+v", data, r, again)
			}
			sh := sim.NewShards(1, sim.Time(r.MinInterNodeLatency(nodes)))
			xnet.New(testbed(sh, nodes, nil), r)
			sh.Close()
		}
	})
}
