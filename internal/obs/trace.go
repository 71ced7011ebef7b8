package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories. The category names the subsystem a span measures;
// anomaly thresholds key off it.
const (
	CatJob      = "job"      // service job lifecycle (queue wait, store)
	CatCache    = "cache"    // content-addressed cache lookups
	CatScenario = "scenario" // one scenario's execution in the runner pool
	CatSim      = "sim"      // engine drive loop
	CatBarrier  = "barrier"  // sharded-scheduler window barrier stalls
	CatLB       = "lb"       // AtSync load-balancing rounds
	CatNet      = "net"      // xnet retransmit bursts
)

// maxSpans bounds one trace's span list so a pathological run (say a
// straggler link stalling every window) degrades to a truncated trace
// plus a counter, never unbounded memory.
const maxSpans = 8192

// Anomaly thresholds: a recorded span reaching its category's threshold
// emits a WARN log line with the trace and span IDs. They are
// deliberately loose: they mark pathologies, not routine scheduling
// noise.
const (
	// barrierWaitWarn flags one shard's wait at one window barrier
	// (CatBarrier span duration, host time).
	barrierWaitWarn = 50 * time.Millisecond
	// lbStepWallWarn flags one load-balancing step's host wall (CatLB
	// span duration — Strategy.Plan plus move application).
	lbStepWallWarn = 100 * time.Millisecond
)

// RetransmitBurst is the retransmit count within one logical send at
// which xnet records a retransmit-burst instant (CatNet), and at which
// that instant's "retransmits" argument flags it.
const RetransmitBurst = 3

// Span is one recorded interval, offsets relative to the trace start.
type Span struct {
	ID    int            `json:"id"`
	TID   int            `json:"tid"`
	Cat   string         `json:"cat"`
	Name  string         `json:"name"`
	Start time.Duration  `json:"start"`
	Dur   time.Duration  `json:"dur"`
	Args  map[string]any `json:"args,omitempty"`
}

// Trace collects the spans of one traced unit of work (a service job, a
// CLI run). All methods are safe on a nil receiver and for concurrent
// use; a nil *Trace is the disabled state and records nothing.
type Trace struct {
	id  string
	t0  time.Time
	log *Logger

	tids atomic.Int64

	mu       sync.Mutex
	spans    []Span
	dropped  int
	tidNames map[int]string
}

// NewTrace starts a trace anchored at now. Anomalous spans WARN on log
// (nil log disables the annotation, never the spans).
func NewTrace(id string, log *Logger) *Trace {
	return &Trace{id: id, t0: time.Now(), log: log}
}

// ID returns the trace ID, "" on nil.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// NextTID hands out a fresh Chrome-trace thread row. Row 0 is the
// job-level lane; scenarios take one row each so their sub-spans
// (sim, barriers, LB steps) nest under them in the waterfall.
func (t *Trace) NextTID() int {
	if t == nil {
		return 0
	}
	return int(t.tids.Add(1))
}

// since is the span-start offset for events beginning now.
func (t *Trace) since() time.Duration { return time.Since(t.t0) }

// ActiveSpan is an in-flight span started by Start; End records it.
type ActiveSpan struct {
	t     *Trace
	cat   string
	name  string
	tid   int
	start time.Duration
}

// Start opens a span; the returned handle's End records it. Nil trace
// returns a nil handle whose End is a no-op, so call sites need no
// guard beyond the pointer they already hold.
func (t *Trace) Start(cat, name string, tid int) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, cat: cat, name: name, tid: tid, start: t.since()}
}

// End records the span with optional key/value args (alternating string
// keys and values, slog-style).
func (a *ActiveSpan) End(kv ...any) {
	if a == nil {
		return
	}
	a.t.Add(a.cat, a.name, a.tid, a.start, a.t.since()-a.start, kv...)
}

// Add records a completed span from explicit offsets (both relative to
// the trace start).
func (t *Trace) Add(cat, name string, tid int, start, dur time.Duration, kv ...any) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.add(Span{TID: tid, Cat: cat, Name: name, Start: start, Dur: dur, Args: argsMap(kv)})
}

// AddNow records a completed span of the given duration ending now —
// the shape instrumentation sites that measure with time.Since use.
func (t *Trace) AddNow(cat, name string, tid int, dur time.Duration, kv ...any) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.Add(cat, name, tid, t.since()-dur, dur, kv...)
}

// Instant records a zero-duration marker event.
func (t *Trace) Instant(cat, name string, tid int, kv ...any) {
	if t == nil {
		return
	}
	t.add(Span{TID: tid, Cat: cat, Name: name, Start: t.since(), Args: argsMap(kv)})
}

func (t *Trace) add(sp Span) {
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return
	}
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	if reason := anomaly(sp); reason != "" {
		t.log.Warn("span threshold exceeded",
			"trace_id", t.id, "span_id", sp.ID, "cat", sp.Cat, "span", sp.Name,
			"dur_ms", float64(sp.Dur)/float64(time.Millisecond), "reason", reason)
	}
}

// anomaly names the breached threshold, "" when the span is ordinary.
func anomaly(sp Span) string {
	switch sp.Cat {
	case CatBarrier:
		if sp.Dur >= barrierWaitWarn {
			return "barrier wait over threshold"
		}
	case CatLB:
		if sp.Dur >= lbStepWallWarn {
			return "lb step wall over threshold"
		}
	case CatNet:
		if n, ok := sp.Args["retransmits"].(int); ok && n >= RetransmitBurst {
			return "retransmit burst over threshold"
		}
	}
	return ""
}

// Spans returns a snapshot copy of the recorded spans in record order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped reports spans discarded past the maxSpans cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SummaryRow aggregates the spans of one (cat, name) pair — the
// waterfall summary GET /api/v1/jobs/{id} embeds.
type SummaryRow struct {
	Cat          string  `json:"cat"`
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// Summary aggregates recorded spans by (cat, name), ordered by each
// pair's first appearance — submit-side spans first, sim internals
// after, matching the waterfall a reader expects.
func (t *Trace) Summary() []SummaryRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[[2]string]int)
	var rows []SummaryRow
	for _, sp := range t.spans {
		key := [2]string{sp.Cat, sp.Name}
		i, ok := idx[key]
		if !ok {
			i = len(rows)
			idx[key] = i
			rows = append(rows, SummaryRow{Cat: sp.Cat, Name: sp.Name})
		}
		rows[i].Count++
		rows[i].TotalSeconds += sp.Dur.Seconds()
		if s := sp.Dur.Seconds(); s > rows[i].MaxSeconds {
			rows[i].MaxSeconds = s
		}
	}
	return rows
}

// argsMap folds alternating key/value pairs into a map; odd trailing
// keys get a "!MISSING" value rather than being dropped, mirroring
// slog's treatment of malformed pairs.
func argsMap(kv []any) map[string]any {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]any, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			continue
		}
		if i+1 < len(kv) {
			m[k] = kv[i+1]
		} else {
			m[k] = "!MISSING"
		}
	}
	return m
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying t (ctx unchanged when t is nil).
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the trace, nil when absent — safe to use
// directly as the disabled state.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
