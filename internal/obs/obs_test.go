package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety pins the disabled state: every method on a nil Logger
// and nil Trace is a no-op that never panics — the binaries wire the
// handles unconditionally and rely on this.
func TestNilSafety(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", "k", 1)
	l.Warn("x")
	l.Error("x")
	if l.Enabled(slog.LevelError) {
		t.Fatal("nil logger reports enabled")
	}
	if l.With("k", 1) != nil {
		t.Fatal("nil logger With returned non-nil")
	}
	if l.Recent() != nil {
		t.Fatal("nil logger Recent returned non-nil")
	}
	l.SetNotify(func([]byte) {})

	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	if tr.NextTID() != 0 {
		t.Fatal("nil trace handed out a TID")
	}
	sp := tr.Start(CatJob, "x", 0)
	if sp != nil {
		t.Fatal("nil trace Start returned a handle")
	}
	sp.End("k", 1)
	tr.Add(CatJob, "x", 0, 0, time.Second)
	tr.AddNow(CatJob, "x", 0, time.Second)
	tr.Instant(CatJob, "x", 0)
	tr.NameTID(1, "x")
	if tr.Spans() != nil || tr.Summary() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace recorded something")
	}
	b, err := tr.ChromeJSON(nil)
	if err != nil || string(b) != "[]\n" {
		t.Fatalf("nil trace ChromeJSON = %q, %v", b, err)
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) non-nil")
	}
}

// TestLoggerJSONLines checks the JSON format, leveling, the ring sink
// and the notify hook.
func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	var notified [][]byte
	l := New(&buf, slog.LevelInfo, "json")
	l.SetNotify(func(line []byte) { notified = append(notified, line) })
	l.Debug("below level")
	l.Info("job submitted", "trace_id", "job-1", "n", 3)
	l.Warn("slow", "trace_id", "job-1")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (debug filtered): %q", len(lines), lines)
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not JSON: %q: %v", line, err)
		}
		if rec["trace_id"] != "job-1" {
			t.Fatalf("line missing trace_id: %q", line)
		}
	}
	if got := l.Recent(); len(got) != 2 {
		t.Fatalf("ring has %d records, want 2", len(got))
	}
	if len(notified) != 2 {
		t.Fatalf("notify saw %d records, want 2", len(notified))
	}
	if !l.Enabled(slog.LevelInfo) || l.Enabled(slog.LevelDebug) {
		t.Fatal("Enabled does not reflect the level")
	}
}

// TestLoggerRingWraps fills past the ring capacity and checks the
// oldest records fall off in order.
func TestLoggerRingWraps(t *testing.T) {
	l := New(nil, slog.LevelInfo, "json")
	for i := 0; i < ringCap+10; i++ {
		l.Info("m", "i", i)
	}
	got := l.Recent()
	if len(got) != ringCap {
		t.Fatalf("ring holds %d, want %d", len(got), ringCap)
	}
	var first map[string]any
	if err := json.Unmarshal(got[0], &first); err != nil {
		t.Fatal(err)
	}
	if first["i"].(float64) != 10 {
		t.Fatalf("oldest surviving record i=%v, want 10", first["i"])
	}
}

// TestParseLevel covers the flag spellings.
func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted junk")
	}
}

// TestTraceSpansAndSummary records a few spans and checks IDs, the
// snapshot, and the waterfall aggregation.
func TestTraceSpansAndSummary(t *testing.T) {
	tr := NewTrace("job-7", nil)
	tr.Add(CatJob, "queue-wait", 0, 0, 10*time.Millisecond)
	tr.Add(CatScenario, "run", 1, 10*time.Millisecond, 40*time.Millisecond, "seed", 1)
	tr.Add(CatScenario, "run", 2, 10*time.Millisecond, 20*time.Millisecond, "seed", 2)
	sp := tr.Start(CatCache, "store", 0)
	sp.End("artifacts", 5)
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
	}
	if spans[1].Args["seed"] != 1 {
		t.Fatalf("span args lost: %v", spans[1].Args)
	}
	sum := tr.Summary()
	if len(sum) != 3 {
		t.Fatalf("summary rows %d, want 3", len(sum))
	}
	if sum[0].Name != "queue-wait" || sum[1].Name != "run" || sum[1].Count != 2 {
		t.Fatalf("summary order/aggregation wrong: %+v", sum)
	}
	if want := 0.06; sum[1].TotalSeconds < want-1e-9 || sum[1].TotalSeconds > want+1e-9 {
		t.Fatalf("run total %v, want %v", sum[1].TotalSeconds, want)
	}
}

// TestAnomalyWarns checks spans at and above the thresholds land as
// WARN records carrying the trace and span IDs, and that ordinary spans
// stay quiet.
func TestAnomalyWarns(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelWarn, "json")
	tr := NewTrace("job-9", l)
	tr.Add(CatBarrier, "window-stall", 1, 0, time.Millisecond) // under
	tr.Add(CatBarrier, "window-stall", 1, 0, barrierWaitWarn)
	tr.Add(CatLB, "lb-step", 1, 0, lbStepWallWarn-time.Millisecond) // under
	tr.Add(CatLB, "lb-step", 1, 0, 2*lbStepWallWarn)
	tr.Instant(CatNet, "retransmit-burst", 1, "retransmits", RetransmitBurst)
	tr.Instant(CatNet, "retransmit-burst", 1, "retransmits", 1) // under
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d WARN lines, want 3: %q", len(lines), lines)
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["trace_id"] != "job-9" || rec["span_id"] == nil || rec["level"] != "WARN" {
			t.Fatalf("WARN record malformed: %q", line)
		}
	}
}

// TestSpanCap pins the truncation behaviour past maxSpans.
func TestSpanCap(t *testing.T) {
	tr := NewTrace("job-cap", nil)
	for i := 0; i < maxSpans+50; i++ {
		tr.Instant(CatBarrier, "stall", 1)
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("kept %d spans, want %d", got, maxSpans)
	}
	if tr.Dropped() != 50 {
		t.Fatalf("dropped %d, want 50", tr.Dropped())
	}
}

// TestChromeJSONMerge checks the export is a valid trace-event array
// and that sim events ride along under their own pid.
func TestChromeJSONMerge(t *testing.T) {
	tr := NewTrace("job-3", nil)
	tr.NameTID(1, "cores=8 refine seed=1")
	tr.Add(CatJob, "queue-wait", 0, 0, time.Millisecond)
	tr.Instant(CatNet, "retransmit-burst", 1, "retransmits", 4)
	sim := []ChromeEvent{
		{Name: "chare-0", Category: "task", Phase: "X", Dur: 5},
		{Name: "chare-0", Category: "migration", Phase: "s", TS: 5, ID: 1},
	}
	b, err := tr.ChromeJSON(sim)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("export not a JSON array: %v", err)
	}
	var phases []string
	pids := map[float64]bool{}
	for _, ev := range events {
		phases = append(phases, ev["ph"].(string))
		pids[ev["pid"].(float64)] = true
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("merged trace missing a pid: %v", pids)
	}
	want := []string{"M", "M", "X", "i", "M", "X", "s"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	// Span IDs survive into args for cross-referencing WARN lines.
	if events[2]["args"].(map[string]any)["span_id"].(float64) != 1 {
		t.Fatalf("span_id missing: %v", events[2])
	}
	// The sim events close the array exactly as WriteChrome encodes them.
	var simOnly bytes.Buffer
	if err := WriteChrome(&simOnly, sim); err != nil {
		t.Fatal(err)
	}
	var wantSim []map[string]any
	if err := json.Unmarshal(simOnly.Bytes(), &wantSim); err != nil {
		t.Fatal(err)
	}
	if got := events[len(events)-len(sim):]; !reflect.DeepEqual(got, wantSim) {
		t.Fatalf("sim events changed in the merge:\n got: %v\nwant: %v", got, wantSim)
	}
}

// TestContextRoundTrip checks the trace rides the context.
func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace("job-ctx", nil)
	ctx := NewContext(t.Context(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	if FromContext(t.Context()) != nil {
		t.Fatal("empty context produced a trace")
	}
}

// TestTraceConcurrent hammers one trace from many goroutines; run
// under -race this pins the locking discipline.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("job-conc", New(nil, slog.LevelWarn, "json"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid := tr.NextTID()
			tr.NameTID(tid, "worker")
			for i := 0; i < 100; i++ {
				sp := tr.Start(CatScenario, "run", tid)
				sp.End("i", i)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
	if _, err := tr.ChromeJSON(nil); err != nil {
		t.Fatal(err)
	}
}
