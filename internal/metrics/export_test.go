package metrics

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusEscapingGolden pins the 0.0.4 escaping rules with
// pathological HELP text and label values: backslashes, newlines and
// quotes in every position the spec treats differently.
func TestPrometheusEscapingGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "back\\slash, a\nnewline and a \"quote\"",
		L("path", `C:\tmp`), L("msg", "two\nlines"), L("q", `say "hi"`)).Add(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP esc_total back\\slash, a\nnewline and a "quote"
# TYPE esc_total counter
esc_total{msg="two\nlines",path="C:\\tmp",q="say \"hi\""} 3
`
	if sb.String() != want {
		t.Fatalf("escaping changed:\n got: %q\nwant: %q", sb.String(), want)
	}
}

// TestEscapingNoDoubleEscape feeds strings that already look escaped:
// the single-pass replacer must not escape its own output.
func TestEscapingNoDoubleEscape(t *testing.T) {
	if got := escapeLabel(`a\nb`); got != `a\\nb` {
		t.Fatalf(`escapeLabel(a\nb) = %q, want a\\nb`, got)
	}
	if got := escapeHelp(`a\\b`); got != `a\\\\b` {
		t.Fatalf(`escapeHelp(a\\b) = %q, want a\\\\b`, got)
	}
	if got := escapeHelp(`say "hi"`); got != `say "hi"` {
		t.Fatalf("escapeHelp must pass quotes through, got %q", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewRegistry().Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 14.5 {
		t.Fatalf("count/sum = %d/%g, want 5/14.5", s.Count, s.Sum)
	}
	wantCum := []uint64{1, 3, 4, 5}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("%d buckets, want %d", len(s.Buckets), len(wantCum))
	}
	for i, w := range wantCum {
		if s.Buckets[i].Count != w {
			t.Fatalf("bucket %d count = %d, want %d", i, s.Buckets[i].Count, w)
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket not +Inf")
	}
	// rank(p50) = 2.5 lands in (1,2]: 1 + (2.5-1)/2 = 1.75.
	if got := s.P50; math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("p50 = %g, want 1.75", got)
	}
	// rank(p99) = 4.95 lands in the +Inf bucket: clamps to the highest
	// finite bound.
	if s.P99 != 4 {
		t.Fatalf("p99 = %g, want clamp to 4", s.P99)
	}
	var nilH *Histogram
	if snap := nilH.Snapshot(); snap.Count != 0 || snap.P50 != 0 {
		t.Fatal("nil histogram snapshot not zero")
	}
}

func TestEstimateQuantileEdgeCases(t *testing.T) {
	if EstimateQuantile(nil, 0.5) != 0 {
		t.Fatal("no buckets: want 0")
	}
	empty := []Bucket{{UpperBound: 1}, {UpperBound: math.Inf(1)}}
	if EstimateQuantile(empty, 0.5) != 0 {
		t.Fatal("empty histogram: want 0")
	}
	// All mass in the first bucket: interpolate from 0.
	first := []Bucket{{UpperBound: 2, Count: 4}, {UpperBound: math.Inf(1), Count: 4}}
	if got := EstimateQuantile(first, 0.5); got != 1 {
		t.Fatalf("p50 of uniform [0,2] = %g, want 1", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-ascending bounds")
		}
	}()
	NewRegistry().Histogram("h", "", []float64{1, 1})
}

// TestGatherHistogramQuantiles checks the registry snapshot carries the
// estimated quantiles alongside the raw buckets.
func TestGatherHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "help", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	snap := r.Gather()
	if len(snap.Series) != 1 {
		t.Fatalf("%d series, want 1", len(snap.Series))
	}
	s := snap.Series[0]
	if s.P50 <= 0 || s.P95 <= 0 || s.P99 <= 0 {
		t.Fatalf("quantiles not populated: %+v", s)
	}
}

// TestWriteJSONWithHistogram is a regression test: the +Inf bucket bound
// used to make json.Marshal fail, aborting every histogram JSON export.
func TestWriteJSONWithHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("wall_seconds", "w", []float64{0.5}).Observe(2)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON with histogram: %v", err)
	}
	out := sb.String()
	for _, frag := range []string{`"le": "0.5"`, `"le": "+Inf"`, `"p50"`} {
		if !strings.Contains(out, frag) {
			t.Fatalf("JSON missing %s:\n%s", frag, out)
		}
	}
	// The wire form round-trips, +Inf included.
	var b Bucket
	if err := b.UnmarshalJSON([]byte(`{"le":"+Inf","count":3}`)); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b.UpperBound, 1) || b.Count != 3 {
		t.Fatalf("round-trip wrong: %+v", b)
	}
}

// TestLBStepLog: rows appended through views land in the root's log
// labeled by the view, the hook sees each append with its index, since
// reads deltas, and Gather carries the rows without making them series.
func TestLBStepLog(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var got []int
	r.With(L("scenario", "0")).OnLBStep(func(index int, s LBStep) {
		mu.Lock()
		got = append(got, index)
		mu.Unlock()
		if s.Step == 0 {
			t.Error("hook delivered zero step")
		}
	})
	r.With(L("scenario", "1")).AppendLBStep(LBStep{Step: 1}, L("rts", "app"))
	r.AppendLBStep(LBStep{Step: 2})
	r.OnLBStep(nil)
	r.With(L("scenario", "0")).AppendLBStep(LBStep{Step: 3})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("hook indices = %v, want [0 1]", got)
	}
	steps, total := r.With(L("x", "y")).LBSteps(-5)
	if total != 3 || len(steps) != 3 {
		t.Fatalf("LBSteps(-5) = %d of %d, want 3 of 3", len(steps), total)
	}
	for i, want := range [][]Label{{L("rts", "app"), L("scenario", "1")}, nil, {L("scenario", "0")}} {
		if !reflect.DeepEqual(steps[i].Labels, want) {
			t.Errorf("row %d labels %v, want %v", i, steps[i].Labels, want)
		}
	}
	if steps, total := r.LBSteps(1); total != 3 || len(steps) != 2 || steps[0].Step != 2 {
		t.Fatalf("LBSteps(1) = %v of %d", steps, total)
	}
	if steps, total := r.LBSteps(99); total != 3 || len(steps) != 0 {
		t.Fatalf("LBSteps(99) = %v of %d, want none of 3", steps, total)
	}
	if s := r.Gather(); len(s.Series) != 0 || len(s.LBSteps) != 3 {
		t.Fatalf("Gather = %d series and %d rows, want 0 and 3", len(s.Series), len(s.LBSteps))
	}
}
