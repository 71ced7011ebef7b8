package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The expected quartiles are Python's statistics.quantiles(v, n=4), the
// rule the benchmark's spreads are checked by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{0.9, 1.1, 1.0, 1.05, 0.95, 1.2, 0.8}, 0.9, 1.0, 1.1},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if got := iqr(c.in); !near(got, c.q3-c.q1) {
			t.Errorf("iqr(%v) = %v, want %v", c.in, got, c.q3-c.q1)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	vs := make([]float64, 101)
	for i := range vs {
		vs[i] = float64(100 - i)
	}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(vs, c.p); !near(got, c.want) {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2}, 50); !near(got, 1.5) {
		t.Errorf("interpolated percentile = %v, want 1.5", got)
	}
}
