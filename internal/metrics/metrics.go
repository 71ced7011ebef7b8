// Package metrics is a dependency-free runtime telemetry registry:
// counters, gauges and fixed-bucket histograms with zero-allocation
// hot-path updates and cheap atomic snapshots.
//
// The paper's whole argument rests on observing the runtime — per-task
// wall times, the background load O_p of Eq. 2, per-step migration
// behaviour — so the simulator exposes those quantities continuously
// instead of only through end-of-run figure text. Every layer of the
// stack (sim engine, machine cores, charm runtime, load balancing
// strategies, scenario runner) registers its series here and the cmd/
// binaries export one snapshot as JSON or Prometheus text format.
//
// Two properties shape the design:
//
//   - A disabled registry must cost ~nothing. Every handle type is
//     nil-safe: methods on a nil *Counter, *Gauge, *Histogram or
//     *FloatCounter are no-ops, and a nil *Registry hands out nil
//     handles and keeps no LB-step log. Instrumented hot paths therefore
//     update their handles unconditionally — with metrics off the update
//     is a single inlined nil check, with zero allocations (gated by
//     AllocsPerRun tests here and in internal/charm).
//
//   - Updates must be safe under the parallel scenario runner. All state
//     is held in atomics; distinct scenarios sharing one registry
//     accumulate into the same series (registration is idempotent: the
//     same name+labels returns the same handle).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series. Series with
// the same name but different label sets are distinct.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing integer count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float accumulator, for
// quantities measured in seconds (CPU time, background load).
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v. Negative contributions are clamped to zero so the
// series stays monotone (Eq. 2's subtraction can round slightly
// negative). Safe on a nil receiver (no-op).
func (c *FloatCounter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Value reads the accumulated total (0 on a nil receiver).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float value that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v. Safe on a nil receiver (no-op).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (e.g. event-heap depth). Safe on a nil receiver.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sum     FloatCounter
}

// Observe records one sample. Safe on a nil receiver (no-op). The bucket
// scan is linear: bound lists are short (≤ ~20) and the scan allocates
// nothing.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reads the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefTimeBuckets spans 1 ms to ~65 s, the range of real (host) wall
// times a scenario or strategy invocation plausibly takes.
func DefTimeBuckets() []float64 { return ExpBuckets(1e-3, 2, 17) }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindFloatCounter
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindFloatCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// metric is one registered series.
type metric struct {
	name   string
	help   string
	labels []Label // sorted by name
	kind   metricKind

	counter  *Counter
	fcounter *FloatCounter
	gauge    *Gauge
	hist     *Histogram
}

// Registry holds named metric series. The zero value is not usable;
// create registries with NewRegistry. A nil *Registry is the disabled
// registry: every constructor returns a nil handle and Gather returns an
// empty snapshot.
type Registry struct {
	mu         sync.Mutex
	byKey      map[string]*metric
	ordered    []*metric // registration order; sorted at snapshot time
	collectors []func()

	// steps is the LB-step log (AppendLBStep) and onStep the hook every
	// append runs (OnLBStep); both live on the root registry.
	steps  []LBStep
	onStep func(index int, s LBStep)

	// parent and labels make a labeled view (see With): every series
	// registered through the view lives on parent, with labels appended.
	parent *Registry
	labels []Label
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// With returns a view of r that adds labels to every series registered
// through it. The view shares r's series, collectors and snapshot. Runs
// feeding one registry concurrently each take their own view, so no
// series has two writers: a gauge would be last-writer-wins, and a float
// sum would depend on the order the writers add in. A nil registry
// returns nil.
func (r *Registry) With(labels ...Label) *Registry {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.With(slices.Concat(r.labels, labels)...)
	}
	return &Registry{parent: r, labels: slices.Clone(labels)}
}

// key builds the series identity. Labels must already be sorted.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Name)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lookup returns the series for (name, labels), creating it on first
// registration. Re-registering with a different kind panics: two
// subsystems disagreeing about a series' type is a programming error.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *metric {
	if r.parent != nil {
		return r.parent.lookup(name, help, kind, slices.Concat(labels, r.labels))
	}
	ls := sortedLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[k]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: series %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: ls, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindFloatCounter:
		m.fcounter = &FloatCounter{}
	case kindGauge:
		m.gauge = &Gauge{}
	}
	r.byKey[k] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or finds) an integer counter series. A nil registry
// returns a nil handle, whose updates are no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels).counter
}

// FloatCounter registers (or finds) a float counter series.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindFloatCounter, labels).fcounter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels).gauge
}

// Histogram registers (or finds) a fixed-bucket histogram series. Bounds
// must be ascending; they are fixed at first registration (a later call
// with different bounds returns the existing series unchanged).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.Histogram(name, help, bounds, slices.Concat(labels, r.labels)...)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	ls := sortedLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[k]; ok {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("metrics: series %q re-registered as histogram (was %v)", name, m.kind))
		}
		return m.hist
	}
	m := &metric{name: name, help: help, labels: ls, kind: kindHistogram}
	m.hist = &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.byKey[k] = m
	r.ordered = append(r.ordered, m)
	return m.hist
}

// RegisterCollector adds a hook run at the start of every Gather, so
// subsystems can publish state they account internally without paying
// any hot-path cost. With a live telemetry server attached, Gather runs
// on scrape goroutines at arbitrary times, so collectors must only read
// state that is safe to read concurrently with the simulations feeding
// the registry (subsystems that cannot guarantee that publish from their
// own goroutine instead — see machine.PublishMetrics). A nil registry
// ignores the hook.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.RegisterCollector(fn)
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}
