package main

import (
	"reflect"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks BENCHMARK.json against the code's
// workload and metric tables, and the name rules and bounds the file
// must keep.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range bf.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end\n file %v\n code %v", e2e, endToEnd)
	}
	for _, m := range bf.PerLayer {
		checkName(m.Name)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer\n file %v\n code %v", bf.PerLayer, perLayer)
	}
	for _, m := range append(append([]metricDef{}, e2e...), bf.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}
