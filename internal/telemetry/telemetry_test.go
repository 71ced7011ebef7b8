package telemetry_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/runner"
	"cloudlb/internal/telemetry"
)

func newTestServer(t *testing.T) (*telemetry.Server, *metrics.Registry, *httptest.Server) {
	t.Helper()
	reg := metrics.NewRegistry()
	srv := telemetry.NewServer(reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, reg, ts
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	_, reg, ts := newTestServer(t)
	reg.Counter("sim_events_total", "Events executed.").Add(42)
	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "sim_events_total 42") {
		t.Fatalf("series missing:\n%s", body)
	}
}

// TestRunEndpoint: /api/v1/run serves the last account the pool handed
// the server, with the pool's wall histogram from the served registry.
func TestRunEndpoint(t *testing.T) {
	srv, reg, ts := newTestServer(t)
	srv.SetProgress(runner.Progress{ScenariosTotal: 3, ScenariosInFlight: 1})
	runner.ScenarioWall(reg).Observe(0.05)
	srv.SetProgress(runner.Progress{ScenariosTotal: 3, ScenariosDone: 1, Events: 1000})
	code, body, hdr := get(t, ts.URL+"/api/v1/run")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var st telemetry.RunState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	if st.ScenariosTotal != 3 || st.ScenariosDone != 1 || st.ScenariosInFlight != 0 || st.Events != 1000 || st.Finished {
		t.Fatalf("state wrong: %+v", st)
	}
	if st.EventsPerSec <= 0 {
		t.Fatalf("no event rate after 1000 events: %+v", st)
	}
	// The document keeps its keys: the account flattened beside the
	// server's own fields.
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenarios_total", "scenarios_done", "scenarios_in_flight", "events_total",
		"elapsed_seconds", "events_per_sec", "eta_seconds", "finished", "scenario_wall_seconds"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/api/v1/run lacks %q:\n%s", key, body)
		}
	}
	if st.EtaSeconds <= 0 {
		t.Fatalf("no ETA with 2 scenarios remaining: %+v", st)
	}
	if st.ScenarioWall.Count != 1 || st.ScenarioWall.P50 <= 0 {
		t.Fatalf("wall histogram missing: %+v", st.ScenarioWall)
	}
}

func TestLBStepsEndpoint(t *testing.T) {
	_, reg, ts := newTestServer(t)
	reg.With(metrics.L("scenario", "3")).AppendLBStep(
		metrics.LBStep{Step: 1, Time: 1.5, MovesApplied: 2, PELoadAfter: []float64{1, 2}}, metrics.L("rts", "app"))
	reg.AppendLBStep(metrics.LBStep{Step: 2, Time: 3.0})
	var doc struct {
		Since int              `json:"since"`
		Total int              `json:"total"`
		Steps []metrics.LBStep `json:"steps"`
	}
	code, body, _ := get(t, ts.URL+"/api/v1/lbsteps")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 2 || len(doc.Steps) != 2 || doc.Steps[0].MovesApplied != 2 {
		t.Fatalf("full read wrong: %+v", doc)
	}
	// A row names its run by the labels of the view that appended it, in
	// the same {"Name","Value"} form as the series of metrics.json.
	if !strings.Contains(body, `"labels": [`) || !strings.Contains(body, `"Name": "scenario"`) {
		t.Fatalf("labels not served:\n%s", body)
	}
	if want := []metrics.Label{metrics.L("rts", "app"), metrics.L("scenario", "3")}; !reflect.DeepEqual(doc.Steps[0].Labels, want) {
		t.Fatalf("row 0 labels %v, want %v", doc.Steps[0].Labels, want)
	}
	code, body, _ = get(t, ts.URL+"/api/v1/lbsteps?since=1")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Since != 1 || len(doc.Steps) != 1 || doc.Steps[0].Step != 2 {
		t.Fatalf("delta read wrong: %+v", doc)
	}
	if code, _, _ = get(t, ts.URL+"/api/v1/lbsteps?since=x"); code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", code)
	}
}

func TestDashboardAndRouting(t *testing.T) {
	_, _, ts := newTestServer(t)
	code, body, hdr := get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("content type %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{"<!DOCTYPE html>", "/api/v1/run", "/api/v1/lbsteps", "EventSource"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// Self-contained: no external asset loads.
	for _, banned := range []string{"http://", "https://", "cdn."} {
		if strings.Contains(body, banned) {
			t.Fatalf("dashboard references external asset %q", banned)
		}
	}
	if code, _, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", code)
	}
}

func TestPprofEndpoints(t *testing.T) {
	_, _, ts := newTestServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		if code, _, _ := get(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
	}
}

// readSSEEvent reads one "event:"/"data:" pair from an SSE stream.
func readSSEEvent(t *testing.T, br *bufio.Reader) (name, data string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && name != "":
			return name, data
		}
	}
}

func TestSSEFirstEventAndBroadcast(t *testing.T) {
	srv, reg, ts := newTestServer(t)
	srv.SetProgress(runner.Progress{ScenariosTotal: 5})
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// First event arrives on connect, without waiting for a change.
	name, data := readSSEEvent(t, br)
	if name != "progress" {
		t.Fatalf("first event %q, want progress", name)
	}
	var st telemetry.RunState
	if err := json.Unmarshal([]byte(data), &st); err != nil {
		t.Fatal(err)
	}
	if st.ScenariosTotal != 5 {
		t.Fatalf("first event state wrong: %+v", st)
	}

	// A new account broadcasts a fresh progress event carrying it.
	srv.SetProgress(runner.Progress{ScenariosTotal: 5, ScenariosInFlight: 1})
	name, data = readSSEEvent(t, br)
	if name != "progress" {
		t.Fatalf("event %q, want progress", name)
	}
	if err := json.Unmarshal([]byte(data), &st); err != nil {
		t.Fatal(err)
	}
	if st.ScenariosTotal != 5 || st.ScenariosInFlight != 1 {
		t.Fatalf("progress event state wrong: %+v", st)
	}

	// A step-log append broadcasts an lbstep event with its index.
	reg.AppendLBStep(metrics.LBStep{Step: 1, Time: 2.5})
	name, data = readSSEEvent(t, br)
	if name != "lbstep" {
		t.Fatalf("event %q, want lbstep", name)
	}
	var ev struct {
		Index int            `json:"index"`
		Step  metrics.LBStep `json:"step"`
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Index != 0 || ev.Step.Step != 1 {
		t.Fatalf("lbstep event wrong: %+v", ev)
	}
}

func TestSSEClientDisconnectAndDrain(t *testing.T) {
	srv, _, ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	readSSEEvent(t, br) // stream is live
	cancel()            // client walks away
	resp.Body.Close()

	// Drain must complete promptly even with the subscriber gone.
	done := make(chan error, 1)
	go func() { done <- srv.Drain(0) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung after client disconnect")
	}
}

func TestDrainEndsStream(t *testing.T) {
	srv, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readSSEEvent(t, br)
	if err := srv.Drain(0); err != nil {
		t.Fatal(err)
	}
	// The run was finished and the stream closed; reading to EOF must
	// terminate (the "done" event may or may not have won the race with
	// hub close, so just require termination).
	if _, err := io.ReadAll(br); err != nil {
		t.Fatal(err)
	}
	if !srv.State().Finished {
		t.Fatal("Drain did not finish the run")
	}
	var st telemetry.RunState
	if _, body, _ := get(t, ts.URL+"/api/v1/run"); json.Unmarshal([]byte(body), &st) != nil || !st.Finished || st.EtaSeconds != 0 {
		t.Fatalf("/api/v1/run after Drain: %s", body)
	}
}

// TestConcurrentScrape is the race gate: endpoints are scraped
// continuously while a scenario fleet runs with the same registry
// attached, its runtimes appending LB-step rows and its pool announcing
// to the server. Run with -race (make determinism does).
func TestConcurrentScrape(t *testing.T) {
	srv, reg, ts := newTestServer(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/api/v1/run", "/api/v1/lbsteps", "/api/v1/metrics"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	spec := experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1,
		Strategies: []experiment.StrategyKind{experiment.Refine}}
	_, err := spec.Evaluate(context.Background(), experiment.Options{
		Executor: (&runner.Pool{Workers: 2, Metrics: reg, OnProgress: srv.SetProgress}).Executor(),
		Metrics:  reg,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.State(); st.ScenariosDone == 0 || st.ScenariosDone != st.ScenariosTotal || st.ScenariosInFlight != 0 ||
		st.Events == 0 || st.ScenarioWall.Count != uint64(st.ScenariosDone) {
		t.Fatalf("server state after the fleet: %+v", st)
	}
	// The log holds one row per completed LB step, and every row names
	// its runtime and its scenario.
	var doc struct {
		Total int              `json:"total"`
		Steps []metrics.LBStep `json:"steps"`
	}
	if _, body, _ := get(t, ts.URL+"/api/v1/lbsteps"); json.Unmarshal([]byte(body), &doc) != nil {
		t.Fatalf("/api/v1/lbsteps: %s", body)
	}
	lbSteps := 0.0
	for _, s := range reg.Gather().Series {
		if s.Name == "charm_lb_steps_total" {
			lbSteps += s.Value
		}
	}
	if len(doc.Steps) == 0 || doc.Total != len(doc.Steps) || float64(len(doc.Steps)) != lbSteps {
		t.Fatalf("/api/v1/lbsteps served %d of %d rows, charm_lb_steps_total sums to %v", len(doc.Steps), doc.Total, lbSteps)
	}
	for i, row := range doc.Steps {
		named := map[string]bool{}
		for _, l := range row.Labels {
			named[l.Name] = true
		}
		if !named["rts"] || !named["scenario"] {
			t.Fatalf("row %d labeled %v, want rts and scenario", i, row.Labels)
		}
	}
}

// TestHandleAndBroadcast covers the extension points the scenario
// service mounts through: extra routes on the shared mux, and named SSE
// events reaching /events subscribers.
func TestHandleAndBroadcast(t *testing.T) {
	srv, _, ts := newTestServer(t)
	srv.Handle(func(mux *http.ServeMux) {
		mux.HandleFunc("GET /api/v1/extra", func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("mounted"))
		})
	})
	if code, body, _ := get(t, ts.URL+"/api/v1/extra"); code != http.StatusOK || body != "mounted" {
		t.Fatalf("mounted route: %d %q", code, body)
	}

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan string, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			events <- sc.Text()
		}
	}()
	// The initial progress event confirms the subscription is live
	// before broadcasting.
	waitFor := func(want string) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case line := <-events:
				if strings.Contains(line, want) {
					return
				}
			case <-deadline:
				t.Fatalf("no %q event on /events", want)
			}
		}
	}
	waitFor("event: progress")
	srv.Broadcast("job", map[string]string{"id": "job-1", "state": "done"})
	waitFor("event: job")
	waitFor(`"job-1"`)
}

// TestHealthAndReadiness covers the liveness/readiness split: /healthz
// is unconditionally 200 while serving; /readyz reflects registered
// probes, flipping 503 when any fails and naming the failed check.
func TestHealthAndReadiness(t *testing.T) {
	srv, _, ts := newTestServer(t)
	if code, body, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	// No probes registered: ready by default.
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz with no probes: %d, want 200", code)
	}
	healthy := true
	srv.AddReadiness("queue", func() error {
		if healthy {
			return nil
		}
		return errors.New("queue full")
	})
	srv.AddReadiness("store", func() error { return nil })
	code, body, hdr := get(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz healthy: %d\n%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, `"queue": "ok"`) || !strings.Contains(body, `"store": "ok"`) {
		t.Fatalf("checks missing:\n%s", body)
	}
	healthy = false
	code, body, _ = get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz failing probe: %d, want 503", code)
	}
	if !strings.Contains(body, `"queue": "queue full"`) || !strings.Contains(body, `"unavailable"`) {
		t.Fatalf("failure not named:\n%s", body)
	}
}

// TestLogsEndpointAndSSE wires a logger into the server and checks the
// ring lands on /api/v1/logs as ndjson and that each record reaches
// /events subscribers as a "log" event.
func TestLogsEndpointAndSSE(t *testing.T) {
	srv, _, ts := newTestServer(t)
	// Empty until a logger is attached.
	if code, body, _ := get(t, ts.URL+"/api/v1/logs"); code != http.StatusOK || body != "" {
		t.Fatalf("/api/v1/logs without logger: %d %q", code, body)
	}
	logger := obs.New(io.Discard, slog.LevelInfo, "json")
	srv.SetLog(logger)

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readSSEEvent(t, br) // initial progress event

	logger.Info("job submitted", "trace_id", "job-1")
	logger.Warn("span threshold exceeded", "trace_id", "job-1", "span_id", 3)

	name, data := readSSEEvent(t, br)
	if name != "log" || !strings.Contains(data, `"job submitted"`) {
		t.Fatalf("first log event: %q %q", name, data)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(data), &rec); err != nil {
		t.Fatalf("log event not JSON: %v", err)
	}
	if rec["trace_id"] != "job-1" {
		t.Fatalf("log event missing trace_id: %v", rec)
	}
	name, _ = readSSEEvent(t, br)
	if name != "log" {
		t.Fatalf("second log event name %q", name)
	}

	code, body, hdr := get(t, ts.URL+"/api/v1/logs")
	if code != http.StatusOK {
		t.Fatalf("/api/v1/logs: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("ring served %d lines, want 2:\n%s", len(lines), body)
	}
	for _, line := range lines {
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("ndjson line invalid: %q: %v", line, err)
		}
		if rec["trace_id"] != "job-1" {
			t.Fatalf("served record missing trace_id: %q", line)
		}
	}
}

// TestRuntimeSeriesOnScrape pins satellite wiring: constructing the
// server registers the Go runtime collector, so a bare /metrics scrape
// answers with process health series.
func TestRuntimeSeriesOnScrape(t *testing.T) {
	_, _, ts := newTestServer(t)
	code, body, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, series := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gomaxprocs"} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %s:\n%s", series, body)
		}
	}
}
