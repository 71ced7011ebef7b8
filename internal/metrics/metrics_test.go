package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}

	fc := r.FloatCounter("busy_seconds_total", "busy")
	fc.Add(1.5)
	fc.Add(-3) // clamped: float counters stay monotone
	fc.Add(0.25)
	if got := fc.Value(); got != 1.75 {
		t.Errorf("float counter = %v, want 1.75", got)
	}

	g := r.Gauge("depth", "depth")
	g.Set(3)
	g.Add(1.5)
	if got := g.Value(); got != 4.5 {
		t.Errorf("gauge = %v, want 4.5", got)
	}
	g.SetMax(2) // below current: no change
	if got := g.Value(); got != 4.5 {
		t.Errorf("gauge after SetMax(2) = %v, want 4.5", got)
	}
	g.SetMax(10)
	if got := g.Value(); got != 10 {
		t.Errorf("gauge after SetMax(10) = %v, want 10", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("sum = %v, want 106", h.Sum())
	}
	snap := r.Gather()
	if len(snap.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(snap.Series))
	}
	got := snap.Series[0].Buckets
	want := []Bucket{
		{UpperBound: 1, Count: 2}, // 0.5, 1 (le is inclusive)
		{UpperBound: 2, Count: 3},
		{UpperBound: 4, Count: 4},
		{UpperBound: math.Inf(1), Count: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRegistrationIdempotent: the parallel runner re-registers series per
// scenario; the registry must hand back the same handle so counts
// accumulate rather than fork.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("pe", "0"))
	b := r.Counter("x_total", "x", L("pe", "0"))
	if a != b {
		t.Error("same name+labels returned distinct handles")
	}
	c := r.Counter("x_total", "x", L("pe", "1"))
	if a == c {
		t.Error("distinct labels returned the same handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x", L("pe", "0"))
}

// TestNilSafety: every handle and the registry itself must be usable at
// nil — this is the disabled-metrics contract the hot paths rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	fc := r.FloatCounter("b", "")
	g := r.Gauge("c", "")
	h := r.Histogram("d", "", []float64{1})
	c.Inc()
	c.Add(2)
	fc.Add(1)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	r.AppendLBStep(LBStep{})
	r.OnLBStep(func(int, LBStep) { t.Error("step hook ran on nil registry") })
	r.RegisterCollector(func() { t.Error("collector ran on nil registry") })
	if c.Value() != 0 || fc.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles returned nonzero values")
	}
	if s := r.Gather(); len(s.Series) != 0 {
		t.Error("nil registry gathered series")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("WritePrometheus on nil registry: %v", err)
	}
	if r.With(L("a", "b")) != nil {
		t.Error("view of a nil registry is not nil")
	}
	if steps, total := r.LBSteps(0); steps != nil || total != 0 {
		t.Error("nil registry kept LB steps")
	}
}

// TestWithView: series registered through a view carry its labels and
// land in the parent's snapshot, views of views add their labels up, and
// two views never share a series.
func TestWithView(t *testing.T) {
	r := NewRegistry()
	a, b := r.With(L("scenario", "0")), r.With(L("scenario", "1"))
	a.Gauge("g", "", L("core", "0")).Set(1)
	b.Gauge("g", "", L("core", "0")).Set(2)
	a.With(L("x", "y")).Histogram("h", "", []float64{1}).Observe(0.5)
	var got []string
	for _, s := range a.Gather().Series {
		got = append(got, fmt.Sprintf("%s%v=%v/%d", s.Name, s.Labels, s.Value, s.Count))
	}
	want := []string{
		"g[{core 0} {scenario 0}]=1/0",
		"g[{core 0} {scenario 1}]=2/0",
		"h[{scenario 0} {x y}]=0/1",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("snapshot through a view:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestConcurrentUpdates mirrors the parallel scenario runner: many
// goroutines hammering shared series while another goroutine snapshots.
// Run under -race this is the registry's thread-safety gate.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10_000
	c := r.Counter("events_total", "")
	fc := r.FloatCounter("busy_total", "")
	g := r.Gauge("depth", "")
	h := r.Histogram("wall", "", ExpBuckets(1, 2, 8))

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Gather()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Concurrent registration of the same series must converge.
			cc := r.Counter("events_total", "")
			for i := 0; i < perWorker; i++ {
				cc.Inc()
				fc.Add(0.5)
				g.SetMax(float64(w*perWorker + i))
				h.Observe(float64(i % 300))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := fc.Value(); got != workers*perWorker*0.5 {
		t.Errorf("float counter = %v, want %v", got, workers*perWorker*0.5)
	}
	if got := g.Value(); got != workers*perWorker-1 {
		t.Errorf("gauge max = %v, want %v", got, workers*perWorker-1)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestUpdateAllocFree gates the hot path: enabled or disabled, a metric
// update must not allocate.
func TestUpdateAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "")
	fc := r.FloatCounter("b_total", "")
	g := r.Gauge("c", "")
	h := r.Histogram("d", "", ExpBuckets(1, 2, 8))
	var nc *Counter
	var nfc *FloatCounter
	var ng *Gauge
	var nh *Histogram
	cases := []struct {
		name string
		fn   func()
	}{
		{"enabled", func() {
			c.Inc()
			fc.Add(0.5)
			g.Set(1)
			g.SetMax(2)
			h.Observe(3)
		}},
		{"disabled", func() {
			nc.Inc()
			nfc.Add(0.5)
			ng.Set(1)
			ng.SetMax(2)
			nh.Observe(3)
		}},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(1000, tc.fn); avg != 0 {
			t.Errorf("%s updates: %.2f allocs/op, want 0", tc.name, avg)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_total", "Events dispatched.").Add(42)
	r.Gauge("heap_depth", "Max heap depth.", L("rts", "app")).Set(7)
	r.FloatCounter("pe_busy_seconds_total", "Busy time.", L("pe", "10")).Add(1.5)
	r.FloatCounter("pe_busy_seconds_total", "Busy time.", L("pe", "2")).Add(2.5)
	h := r.Histogram("wall_seconds", "Wall time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP heap_depth Max heap depth.
# TYPE heap_depth gauge
heap_depth{rts="app"} 7
# HELP pe_busy_seconds_total Busy time.
# TYPE pe_busy_seconds_total counter
pe_busy_seconds_total{pe="2"} 2.5
pe_busy_seconds_total{pe="10"} 1.5
# HELP sim_events_total Events dispatched.
# TYPE sim_events_total counter
sim_events_total 42
# HELP wall_seconds Wall time.
# TYPE wall_seconds histogram
wall_seconds_bucket{le="0.1"} 1
wall_seconds_bucket{le="1"} 1
wall_seconds_bucket{le="+Inf"} 2
wall_seconds_sum 5.05
wall_seconds_count 2
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteJSON: the JSON export carries the series and the LB-step
// rows, the rows ordered by labels (numeric values numerically), then by
// step, whatever order they were appended in; the Prometheus text
// carries no rows.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Inc()
	for _, a := range []struct {
		scenario string
		step     int
	}{{"10", 1}, {"9", 2}, {"9", 1}} {
		r.With(L("scenario", a.scenario)).AppendLBStep(LBStep{Step: a.step, Rounds: 3}, L("rts", "app"))
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{`"name": "a_total"`, `"kind": "counter"`, `"value": 1`, `"lb_steps": [`, `"rounds": 3`} {
		if !strings.Contains(out, frag) {
			t.Errorf("JSON output missing %s:\n%s", frag, out)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, s := range snap.LBSteps {
		order = append(order, fmt.Sprintf("%s/%d", s.Labels[1].Value, s.Step))
	}
	if got := strings.Join(order, " "); got != "9/1 9/2 10/1" {
		t.Errorf("rows exported in order %s, want 9/1 9/2 10/1", got)
	}
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "scenario") {
		t.Errorf("Prometheus text carries LB-step rows:\n%s", b.String())
	}
}

func TestCollectorRunsAtGather(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("busy", "")
	calls := 0
	r.RegisterCollector(func() {
		calls++
		g.Set(float64(calls))
	})
	snap := r.Gather()
	if calls != 1 {
		t.Errorf("collector ran %d times, want 1", calls)
	}
	if snap.Series[0].Value != 1 {
		t.Errorf("gathered value %v, want 1 (collector runs before freeze)", snap.Series[0].Value)
	}
	r.Gather()
	if calls != 2 {
		t.Errorf("collector ran %d times after second gather, want 2", calls)
	}
}

func TestWriteLBSteps(t *testing.T) {
	steps := []LBStep{
		{Step: 1, Time: 10, MovesPlanned: 3, MovesApplied: 2,
			PELoadBefore: []float64{1, 5}, PELoadAfter: []float64{3, 3}, PEBackground: []float64{0, 0.4}},
		{Step: 2, Time: 20},
	}
	var b strings.Builder
	if err := WriteLBSteps(&b, steps); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "planned") || len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Errorf("table output unexpected:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
