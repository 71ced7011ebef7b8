package service

import (
	"encoding/json"
	"testing"

	"cloudlb/internal/experiment"
	"cloudlb/internal/xnet"
)

// FuzzParseRequest: the submit parser never panics, and every request it
// accepts re-parses from its canonical form (the stored request.json) to
// the same cache key. Plain `go test` runs the seeds; `go test -fuzz
// FuzzParseRequest ./internal/service` explores from them.
func FuzzParseRequest(f *testing.F) {
	respelled := quickSpec()
	respelled.Strategies = []experiment.StrategyKind{experiment.NoLB}
	respelled.SyncEvery = 10
	respelled.Shards = 4
	for _, req := range []Request{
		{Method: "scenarios", Spec: quickSpec()},
		{Method: "scenarios", Spec: respelled},
		{Method: "compare", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4},
			Strategies: []experiment.StrategyKind{experiment.NoLB, experiment.Refine}, Seeds: []int64{1}, Scale: 0.05}},
		{Method: "compare", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4, 8},
			Strategies: []experiment.StrategyKind{experiment.NoLB}, Seeds: []int64{1}, Scale: 0.05}},
		{Method: "sweep", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4},
			Seeds: []int64{1}, Scale: 0.05, EpsFracs: []float64{0.02}, Periods: []int{10}}},
		{Method: "evaluate", Spec: experiment.Spec{App: experiment.Wave2D, Cores: []int{8}, Seeds: []int64{1}, Scale: 0.05,
			Net: xnet.Config{DropPct: 10, Seed: 7, StragglerNodes: []int{1}, StragglerFactor: 8}}},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range []string{
		`{"method":"scenarios","spec":{"app":"Wave2D","cores":[8,-4]}}`,
		`{"method":"explode","spec":{"app":"Wave2D","cores":[8]}}`,
		`{"method":"scenarios","spec":{"app":"Wave2D","coers":[8]}}`,
		// Specs whose runs panic unless Validate or the job contains them.
		`{"method":"scenarios","spec":{"app":"jacobi2d","cores":[4],"scale":1,"max_virtual_time":1}}`,
		`{"method":"scenarios","spec":{"app":"wave2d","cores":[8],"net":{"straggler_nodes":[99],"straggler_factor":4}}}`,
		`{"method":"scenarios","spec":{"app":"wave2d","cores":[8],"bg":"wave2d","bg_weight":NaN}}`,
		// Shards is hashed away but must still parse.
		`{"v":1,"method":"scenarios","spec":{"app":"Wave2D","cores":[8],"shards":8}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		canon, err := req.canonicalJSON()
		if err != nil {
			t.Fatalf("canonical encoding of %s: %v", data, err)
		}
		again, err := ParseRequest(canon)
		if err != nil {
			t.Fatalf("canonical form %s of %s does not parse: %v", canon, data, err)
		}
		if again.CacheKey() != req.CacheKey() {
			t.Fatalf("canonical form %s re-parses to cache key %s, want %s", canon, again.CacheKey(), req.CacheKey())
		}
	})
}
