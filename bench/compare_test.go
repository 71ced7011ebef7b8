package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base float64, steps ...float64) []float64 {
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = base + s
	}
	return out
}

func TestJudge(t *testing.T) {
	jitter := []float64{0, 0.01, -0.01, 0.02, -0.02, 0.005, -0.005, 0.015, -0.015, 0}
	base := series(1, jitter...)
	cases := []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same runs", base, base, true, 0.1, "unchanged"},
		{"faster everywhere", base, series(0.8, jitter...), true, 0.1, "improved"},
		{"faster but too few pairs", base[:5], series(0.8, jitter[:5]...), true, 0.1, "unchanged"},
		{"slower beyond the bound", base, series(1.2, jitter...), true, 0.1, "regressed"},
		{"slower within the bound", base, series(1.05, jitter...), true, 0.1, "unchanged"},
		{"higher is better and it dropped", base, series(0.8, jitter...), false, 0.1, "regressed"},
		{"higher is better and it rose", base, series(1.2, jitter...), false, 0.1, "improved"},
		{"spread wider than the bound", series(1, 0, 0.3, -0.3, 0.2, -0.2), series(1.05, 0, 0.3, -0.3, 0.2, -0.2), true, 0.1, "unresolved"},
		{"wide spread but every head run better", series(1, 0, 0.3, -0.3, 0.2, -0.2), series(0.5, 0, 0.01, -0.01), true, 0.1, "unchanged"},
	}
	for _, c := range cases {
		if got := judge(c.base, c.head, c.lowerBetter, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d), want %s", c.name, got.verdict, got.wins, got.pairs, c.want)
		}
	}
	j := judge(base, series(0.8, jitter...), true, 0.1)
	if j.wins != 10 || j.pairs != 10 {
		t.Errorf("wins %d/%d, want 10/10", j.wins, j.pairs)
	}
	// Ties count for neither side.
	if j := judge([]float64{1, 1}, []float64{1, 0.5}, true, 0.1); j.wins != 1 {
		t.Errorf("tie counted: wins %d, want 1", j.wins)
	}
}

func TestCompareMainReportsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, i int, op float64) {
		t.Helper()
		r := record{Workload: "mol3d-32c", Seed: int64(i), Valid: true, Correct: true,
			Metrics: map[string]metricValue{"op_s": {Value: op, Unit: "s"}}}
		if err := os.MkdirAll(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(filepath.Join(dir, side, "r"+string(rune('a'+i))+".json"), &r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		write("base", i, 1+0.001*float64(i))
		write("same", i, 1+0.001*float64(4-i))
		write("slow", i, 1.5+0.001*float64(i))
	}
	var out strings.Builder
	args := func(head string) []string {
		return []string{"-base", filepath.Join(dir, "base"), "-head", filepath.Join(dir, head), "-benchmark", "../BENCHMARK.json"}
	}
	if err := compareMain(args("same"), &out); err != nil {
		t.Fatalf("same runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "mol3d-32c") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same runs: no unchanged mol3d-32c row in\n%s", out.String())
	}
	out.Reset()
	if err := compareMain(args("slow"), &out); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slow runs: err %v, output\n%s", err, out.String())
	}
}
