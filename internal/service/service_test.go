package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/service/store"
	"cloudlb/internal/xnet"
)

func newTestService(t *testing.T, live *metrics.Registry) (*Service, *httptest.Server) {
	t.Helper()
	return newTestServiceConfig(t, Config{Metrics: live})
}

// newTestServiceConfig serves cfg, over a fresh store, behind httptest.
func newTestServiceConfig(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return svc, ts
}

func simEvents(reg *metrics.Registry) float64 {
	for _, s := range reg.Gather().Series {
		if s.Name == "sim_events_total" {
			return s.Value
		}
	}
	return 0
}

func quickSpec() experiment.Spec {
	return experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1}, Scale: 0.05}
}

// TestSubmitComputeAndCacheHit is the tentpole contract: the first
// submission simulates and stores artifacts; an equivalent resubmission
// (different field spelling, defaults written out, different shard
// count) is served from the store with zero new simulation events and
// the same artifact hashes.
func TestSubmitComputeAndCacheHit(t *testing.T) {
	live := metrics.NewRegistry()
	_, ts := newTestService(t, live)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	first, err := client.Run(ctx, Request{Method: "scenarios", Spec: quickSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: state %s cached %v, want computed done: %+v", first.State, first.Cached, first)
	}
	for _, name := range []string{"request.json", "rows.json", "table.csv", "metrics.json", "trace.json"} {
		if _, ok := first.Artifacts[name]; !ok {
			t.Errorf("first run missing artifact %s (have %v)", name, first.Artifacts)
		}
	}
	if first.Progress.ScenariosDone != 1 || first.Progress.Events == 0 {
		t.Fatalf("first run progress: %+v", first.Progress)
	}
	eventsAfterFirst := simEvents(live)
	if eventsAfterFirst == 0 {
		t.Fatal("computed job did not add to live sim_events_total")
	}

	// Equivalent spec, spelled differently: defaults explicit, another
	// shard count. Must hash the same and hit the cache.
	respelled := quickSpec()
	respelled.Strategies = []experiment.StrategyKind{experiment.NoLB}
	respelled.SyncEvery = 10
	respelled.Shards = 4
	second, err := client.Run(ctx, Request{Method: "scenarios", Spec: respelled})
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second run: state %s cached %v, want cache hit: %+v", second.State, second.Cached, second)
	}
	if got := simEvents(live); got != eventsAfterFirst {
		t.Fatalf("cache hit simulated: sim_events_total %v -> %v", eventsAfterFirst, got)
	}
	if second.Progress.Events != 0 || second.Progress.ScenariosTotal != 0 {
		t.Fatalf("cache hit reported execution progress: %+v", second.Progress)
	}
	for name, a := range first.Artifacts {
		b, ok := second.Artifacts[name]
		if !ok || b.Hash != a.Hash || b.URL != a.URL {
			t.Errorf("artifact %s drifted across cache hit: %+v vs %+v", name, a, b)
		}
	}

	// The cached artifacts are the original bytes, content-verified.
	rows1, err := client.Artifact(ctx, first.Artifacts["rows.json"])
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := client.Artifact(ctx, second.Artifacts["rows.json"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rows1, rows2) {
		t.Fatal("cached rows.json differs from computed rows.json")
	}
	var rows []map[string]any
	if err := json.Unmarshal(rows1, &rows); err != nil || len(rows) != 1 {
		t.Fatalf("rows.json: %v (%d rows)", err, len(rows))
	}
	if rows[0]["bg_wall"] != nil {
		t.Fatalf("bg_wall should be null without a background job, got %v", rows[0]["bg_wall"])
	}
}

// TestPanickingScenarioFailsOnlyItsJob: a Spec that passes Validate but
// cannot finish by its max_virtual_time panics inside the run, on a pool
// worker goroutine. The job must fail with that message, and the service
// must go on to complete the next job.
func TestPanickingScenarioFailsOnlyItsJob(t *testing.T) {
	_, ts := newTestService(t, nil)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req, err := ParseRequest([]byte(`{"method":"scenarios","spec":{"app":"jacobi2d","cores":[4],"scale":1,"max_virtual_time":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	view, err := client.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateFailed || !strings.Contains(view.Error, "did not finish") {
		t.Fatalf("want a failed job naming the unfinished scenario, got %s %q", view.State, view.Error)
	}
	view, err = client.Run(ctx, Request{Method: "scenarios", Spec: quickSpec()})
	if err != nil || view.State != StateDone {
		t.Fatalf("job after the failed one: %v %s %q", err, view.State, view.Error)
	}
}

// TestJobLogAndTraceArtifacts follows one job through its log lines and
// trace artifacts: a JSON log line carries the job's trace ID, the
// trace_spans.json artifact holds the job's execute and cache-lookup
// spans and, as pid 0, every event of its trace.json unchanged, and a
// resubmission is logged as a cache hit.
func TestJobLogAndTraceArtifacts(t *testing.T) {
	log := obs.New(nil, slog.LevelInfo, "json")
	_, ts := newTestServiceConfig(t, Config{Log: log})
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := Request{Method: "scenarios", Spec: quickSpec()}
	view, err := client.Run(ctx, req)
	if err != nil || view.State != StateDone || view.TraceID == "" {
		t.Fatalf("job: %v %+v", err, view)
	}
	logged := func(match func(rec map[string]any) bool) bool {
		for _, line := range log.Recent() {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("log line is not JSON: %s", line)
			}
			if match(rec) {
				return true
			}
		}
		return false
	}
	if !logged(func(rec map[string]any) bool { return rec["trace_id"] == view.TraceID && rec["msg"] != nil }) {
		t.Errorf("no JSON log line carries trace_id %s", view.TraceID)
	}

	decode := func(name string) []map[string]any {
		t.Helper()
		b, err := client.Artifact(ctx, view.Artifacts[name])
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(b, &events); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return events
	}
	spans, sim := decode("trace_spans.json"), decode("trace.json")
	complete := map[string]bool{}
	var pid0 []map[string]any
	for _, ev := range spans {
		if ev["ph"] == "X" {
			complete[ev["name"].(string)] = true
		}
		if ev["pid"] == 0.0 && ev["ph"] != "M" {
			pid0 = append(pid0, ev)
		}
	}
	if !complete["execute"] || !complete["cache-lookup"] {
		t.Errorf("trace_spans.json lacks execute or cache-lookup spans: %v", complete)
	}
	if len(sim) == 0 || !reflect.DeepEqual(pid0, sim) {
		t.Errorf("trace_spans.json pid 0 holds %d events, want trace.json's %d unchanged", len(pid0), len(sim))
	}

	again, err := client.Run(ctx, req)
	if err != nil || !again.Cached {
		t.Fatalf("resubmission: %v %+v", err, again)
	}
	if !logged(func(rec map[string]any) bool { return rec["msg"] == "cache hit" && rec["trace_id"] == again.TraceID }) {
		t.Error("the cache hit was not logged")
	}
}

// TestMethodsProduceTables runs each aggregate method once through the
// full HTTP path and checks its primary CSV artifact has content.
func TestMethodsProduceTables(t *testing.T) {
	_, ts := newTestService(t, nil)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	reqs := []Request{
		{Method: "compare", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4},
			Strategies: []experiment.StrategyKind{experiment.NoLB, experiment.Refine},
			Seeds:      []int64{1}, Scale: 0.05}},
		{Method: "sweep", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4},
			Seeds: []int64{1}, Scale: 0.05, EpsFracs: []float64{0.02}, Periods: []int{10}}},
	}
	for _, req := range reqs {
		view, err := client.Run(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", req.Method, err)
		}
		if view.State != StateDone {
			t.Fatalf("%s: state %s (%s)", req.Method, view.State, view.Error)
		}
		csv, err := client.Artifact(ctx, view.Artifacts["table.csv"])
		if err != nil {
			t.Fatalf("%s: %v", req.Method, err)
		}
		if lines := strings.Count(string(csv), "\n"); lines < 2 {
			t.Fatalf("%s: table.csv has %d lines:\n%s", req.Method, lines, csv)
		}
	}
}

// TestEvaluateJobHonoursNet: an evaluate job whose Spec carries a lossy
// straggler network stores the rows a local Spec.Evaluate computes, not
// reliable-network rows under the lossy Spec's hash.
func TestEvaluateJobHonoursNet(t *testing.T) {
	_, ts := newTestService(t, nil)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	sp := experiment.Spec{App: experiment.Wave2D, Cores: []int{8}, Seeds: []int64{1}, Scale: 0.05,
		Net: xnet.Config{DropPct: 10, Seed: 7, StragglerNodes: []int{1}, StragglerFactor: 8}}
	view, err := client.Run(ctx, Request{Method: "evaluate", Spec: sp})
	if err != nil || view.State != StateDone {
		t.Fatalf("evaluate job: %v %+v", err, view)
	}
	got, err := client.Artifact(ctx, view.Artifacts["rows.json"])
	if err != nil {
		t.Fatal(err)
	}
	evals, err := sp.Evaluate(ctx, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(evals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rows.json differs from local Spec.Evaluate\n got: %s\nwant: %s", got, want)
	}
	reliable := sp
	reliable.Net = xnet.Config{}
	evals, err = reliable.Evaluate(ctx, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if same, _ := json.Marshal(evals); bytes.Equal(got, same) {
		t.Fatal("the lossy evaluate job stored the reliable network's rows")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestService(t, nil)

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Bad core count: structured field error with the offending index.
	resp, body := post(`{"method":"scenarios","spec":{"app":"Wave2D","cores":[8,-4]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var verr struct {
		Errors []experiment.FieldError `json:"errors"`
	}
	if err := json.Unmarshal(body, &verr); err != nil || len(verr.Errors) == 0 {
		t.Fatalf("400 body not a field-error list: %v %s", err, body)
	}
	if verr.Errors[0].Field != "spec.cores[1]" {
		t.Fatalf("field = %q, want spec.cores[1]", verr.Errors[0].Field)
	}

	// Unknown method and unknown Spec field are both rejected.
	if resp, _ := post(`{"method":"explode","spec":{"app":"Wave2D","cores":[8]}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown method: status %d", resp.StatusCode)
	}
	if resp, _ := post(`{"method":"scenarios","spec":{"app":"Wave2D","coers":[8]}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	// Method-shape errors surface as failed jobs, not hung ones: compare
	// needs exactly one core count.
	_, tsURL := ts, ts.URL
	client := &Client{BaseURL: tsURL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	view, err := client.Run(ctx, Request{Method: "compare", Spec: experiment.Spec{
		App: experiment.Jacobi2D, Cores: []int{4, 8},
		Strategies: []experiment.StrategyKind{experiment.NoLB}, Seeds: []int64{1}, Scale: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateFailed || !strings.Contains(view.Error, "core count") {
		t.Fatalf("want failed job naming the core-count constraint, got %s %q", view.State, view.Error)
	}
}

func TestArtifactEndpoint(t *testing.T) {
	svc, ts := newTestService(t, nil)
	hash, err := svc.Store().PutBytes([]byte("hello artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/artifacts/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || buf.String() != "hello artifacts" {
		t.Fatalf("artifact fetch: %d %q", resp.StatusCode, buf.String())
	}
	if et := resp.Header.Get("ETag"); et != `"`+hash+`"` {
		t.Fatalf("ETag = %s", et)
	}
	for _, bad := range []string{"zz", "../../etc/passwd", strings.Repeat("a", 63)} {
		resp, err := http.Get(ts.URL + "/api/v1/artifacts/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("artifact %q: status %d, want 404", bad, resp.StatusCode)
		}
	}
}

func TestQueueFull(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Store: st, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	// Saturate: one job running (or queued) plus one in the queue slot,
	// then the next submit must bounce. Distinct seeds avoid cache hits.
	var last error
	for seed := int64(1); seed <= 8; seed++ {
		sp := quickSpec()
		sp.Seeds = []int64{seed}
		_, err := svc.Submit(Request{Method: "scenarios", Spec: sp})
		if err != nil {
			last = err
			break
		}
	}
	if last != ErrQueueFull {
		t.Fatalf("saturating the queue returned %v, want ErrQueueFull", last)
	}
}

func TestJobListingAndLookup(t *testing.T) {
	svc, ts := newTestService(t, nil)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	view, err := client.Run(ctx, Request{Method: "scenarios", Spec: quickSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := svc.Job(view.ID); !ok || got.State != StateDone {
		t.Fatalf("Job(%s) = %+v, %v", view.ID, got, ok)
	}
	if _, ok := svc.Job("job-999"); ok {
		t.Fatal("lookup of unknown job succeeded")
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || len(list.Jobs) != 1 {
		t.Fatalf("job list: %v (%d jobs)", err, len(list.Jobs))
	}
}

// TestRecomputeIsByteIdentical: wiping the index (but keeping objects)
// forces a recomputation, which must regenerate byte-identical artifacts
// — the determinism guarantee the content-addressed store leans on.
func TestRecomputeIsByteIdentical(t *testing.T) {
	svc, ts := newTestService(t, nil)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := Request{Method: "compare", Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4},
		Strategies: []experiment.StrategyKind{experiment.NoLB, experiment.Refine},
		Seeds:      []int64{1}, Scale: 0.05}}
	first, err := client.Run(ctx, req)
	if err != nil || first.State != StateDone {
		t.Fatalf("first: %v %+v", err, first)
	}

	// Fresh service over a fresh store: same request must produce the
	// same content addresses from scratch.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := New(Config{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	view2, err := svc2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	view2, err = svc2.Wait(ctx, view2.ID)
	if err != nil || view2.State != StateDone {
		t.Fatalf("second: %v %+v", err, view2)
	}
	for name, a := range first.Artifacts {
		if name == "trace_spans.json" {
			// The job-span artifact records host wall times by design; it is
			// the one artifact excluded from the byte-identity guarantee
			// (see the manifest comment in job.go). It must still exist.
			if view2.Artifacts[name].Hash == "" {
				t.Errorf("recomputed job missing %s", name)
			}
			continue
		}
		if view2.Artifacts[name].Hash != a.Hash {
			t.Errorf("artifact %s not reproducible: %s vs %s", name, a.Hash, view2.Artifacts[name].Hash)
		}
	}
	_ = svc
}
