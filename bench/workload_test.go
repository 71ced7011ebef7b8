package main

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(int64) (scenarioInput, []scenarioInput){
		"fig2-batch": fig2Inputs, "mol3d-32c": mol3dInputs, "cloud-256c-lossy": cloudInputs,
	}
	for name, gen := range gens {
		w1, ops1 := gen(5)
		w2, ops2 := gen(5)
		if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(ops1, ops2) {
			t.Errorf("%s: seed 5 gave different inputs on two calls", name)
		}
		_, other := gen(6)
		if reflect.DeepEqual(ops1, other) {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", name)
		}
		keys := map[string]bool{}
		for _, in := range append([]scenarioInput{w1}, ops1...) {
			keys[in.key] = true
			for _, sp := range in.specs {
				if err := sp.Validate(); err != nil {
					t.Errorf("%s %s: %v", name, in.key, err)
				}
			}
		}
		if len(keys) < len(ops1) {
			t.Errorf("%s: ops share input keys %v", name, keys)
		}
	}

	s1, w1 := serviceInputs(5, 10)
	s2, w2 := serviceInputs(5, 10)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(w1, w2) ||
		!reflect.DeepEqual(readOrder(5, 50), readOrder(5, 50)) {
		t.Error("service-mix: seed 5 gave different inputs on two calls")
	}
	if reflect.DeepEqual(readOrder(5, 50), readOrder(6, 50)) {
		t.Error("service-mix: seeds 5 and 6 gave the same read order")
	}
	seen := map[int64]bool{}
	for _, s := range append(s1, w1...) {
		if seen[s] {
			t.Errorf("service-mix: Spec seed %d both cached and written", s)
		}
		seen[s] = true
	}
}

func TestCheckerFlagsMismatches(t *testing.T) {
	c := &checker{golden: map[string]string{"k": "good"}, seen: map[string]string{}}
	if !c.op("k", "good", nil) || !c.op("other", "x", nil) || !c.op("other", "x", nil) {
		t.Fatal("matching digests failed")
	}
	if c.op("k", "bad", nil) {
		t.Error("golden mismatch passed")
	}
	if c.op("other", "y", nil) {
		t.Error("repeat mismatch passed")
	}
	if c.op("new", "z", context.Canceled) {
		t.Error("error passed")
	}
	if attempted, failed, errs := c.counts(); attempted != 6 || failed != 3 || len(errs) != 3 {
		t.Errorf("counts %d attempted, %d failed, %d errors; want 6, 3, 3", attempted, failed, len(errs))
	}
}

// TestServiceMixSmoke runs a short traced service-mix: set-up, a second
// of open-loop reads and writes, the per-layer numbers and the ladder.
func TestServiceMixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the service and runs the ladder")
	}
	t.Setenv("TMPDIR", t.TempDir())
	checks, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("service-mix")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rec, bt, err := run(ctx, w, options{workload: w.name, seed: 3, seconds: 1, trace: 1}, checks)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 {
		t.Fatalf("failed ops: %v", rec.Errors)
	}
	var reads, writes int
	for _, s := range rec.Samples {
		switch s.Kind {
		case "read":
			reads++
		case "write":
			writes++
		}
	}
	if reads != 100 || writes != 5 {
		t.Errorf("%d reads and %d writes, want 100 and 5", reads, writes)
	}
	if len(rec.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(rec.Metrics), len(perLayer))
	}
	for _, name := range []string{"service.submit_ms", "service.execute_ms", "service.job_computed_s",
		"sim.events_per_op", "charm.messages_per_op", "sim.event_ns", "lb.plan_ms.RefineLB.32c2k"} {
		if rec.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, rec.Metrics[name].Value)
		}
	}
	if got, want := rec.Metrics["service.hit_ratio"].Value, 100.0/105; got != want {
		t.Errorf("hit ratio %v, want %v", got, want)
	}
	if _, err := bt.ChromeJSON(nil); err != nil {
		t.Errorf("Chrome trace: %v", err)
	}
	e2e := project(endToEnd, map[string]float64{"op_s": 1})
	if len(e2e) != len(endToEnd) || e2e["op_s"].Unit != "s" {
		t.Errorf("end-to-end projection %v", e2e)
	}
}
