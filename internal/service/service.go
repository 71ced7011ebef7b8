// Package service is the job-oriented scenario-evaluation service: the
// batch binaries' evaluation entry points (experiment.Spec and its
// methods) exposed as a versioned HTTP API with a content-addressed
// result cache.
//
//	POST /api/v1/jobs             submit a Request; 400 lists typed field errors
//	GET  /api/v1/jobs             list jobs, newest first
//	GET  /api/v1/jobs/{id}        one job: state, progress, artifact URLs
//	GET  /api/v1/artifacts/{hash} immutable artifact bytes by content address
//
// Every submitted Spec is canonicalized and hashed
// (experiment.Spec.Hash); the method tag plus that hash is the cache
// key. On a hit the job completes instantly from the store — zero
// simulation events — with the same artifact URLs the original
// computation produced; on a miss the job is queued and drained by a
// runner pool, and its artifacts (canonical request, result rows, CSV
// tables, metrics snapshot, Chrome trace for single-scenario batches)
// stream into the store under their content hashes.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/runner"
	"cloudlb/internal/service/store"
)

// Config wires a Service.
type Config struct {
	// Store holds artifacts and the cache index (required).
	Store *store.Store
	// Metrics, when non-nil, is the process-wide live registry: computed
	// jobs add their pool's event count to its sim_events_total series,
	// so a scrape distinguishes computed work from cache hits.
	Metrics *metrics.Registry
	// QueueDepth bounds the submit queue; a full queue rejects with 503.
	// <= 0 selects 16.
	QueueDepth int
	// Workers bounds each job's scenario fan-out. <= 0 selects 1 —
	// results and artifacts are identical at any width, so the default
	// favours an undisturbed interactive machine over job latency.
	Workers int
	// Notify, when non-nil, receives job lifecycle events ("job", view) —
	// the telemetry server points it at its SSE broadcast.
	Notify func(event string, v any)
	// Log, when non-nil, receives the service's structured log records
	// (job lifecycle, cache hits, anomaly warnings), each carrying the
	// job's trace ID. Nil disables logging at zero cost — every job still
	// gets a trace and its trace_spans.json artifact.
	Log *obs.Logger
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Artifact locates one stored output of a job.
type Artifact struct {
	Hash string `json:"hash"`
	URL  string `json:"url"`
	Size int64  `json:"size"`
}

// JobView is the external JSON representation of a job.
type JobView struct {
	ID       string `json:"id"`
	Method   string `json:"method"`
	SpecHash string `json:"spec_hash"`
	State    State  `json:"state"`
	// Cached is true when the job was served from the store without
	// simulating anything.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Progress is the last scenario account the job's runner pool
	// announced; zero for a cache hit, which runs nothing.
	Progress  runner.Progress     `json:"progress"`
	Artifacts map[string]Artifact `json:"artifacts,omitempty"`
	// TraceID names the job's trace; log records carrying the same
	// trace_id belong to this job, and the trace_spans.json artifact holds
	// the full span set.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the waterfall summary: per span kind, how often it fired
	// and how much host wall time it cost. Populated once the job is done.
	Trace []obs.SummaryRow `json:"trace,omitempty"`
}

type job struct {
	mu        sync.Mutex
	id        string
	seq       int
	req       Request
	state     State
	cached    bool
	err       string
	progress  runner.Progress
	artifacts map[string]Artifact
	done      chan struct{}

	// tr is the job's trace; set once at submit, never mutated after, so
	// reads need no lock (the Trace itself is concurrency-safe).
	tr *obs.Trace
	// enqueuedAt feeds the queue-wait span (submit to drain pickup).
	enqueuedAt time.Time
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, Method: j.req.Method, SpecHash: j.req.Spec.Hash(),
		State: j.state, Cached: j.cached, Error: j.err, Progress: j.progress,
		TraceID: j.tr.ID(),
	}
	if j.state == StateDone || j.state == StateFailed {
		v.Trace = j.tr.Summary()
	}
	if len(j.artifacts) > 0 {
		v.Artifacts = make(map[string]Artifact, len(j.artifacts))
		for k, a := range j.artifacts {
			v.Artifacts[k] = a
		}
	}
	return v
}

// Service accepts evaluation jobs over HTTP, drains them through a
// bounded queue, and caches every result in a content-addressed store.
type Service struct {
	cfg    Config
	queue  chan *job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
	seq  int
}

// New starts a service draining its queue on one background worker.
func New(cfg Config) (*Service, error) {
	if cfg.Store == nil {
		return nil, errors.New("service: Config.Store is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		queue:  make(chan *job, cfg.QueueDepth),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
	}
	s.wg.Add(1)
	go s.drain()
	return s, nil
}

// Close stops accepting work, cancels the running job and waits for the
// drain loop to exit. Queued-but-unstarted jobs are marked failed.
func (s *Service) Close() {
	s.cancel()
	s.wg.Wait()
}

func (s *Service) notify(j *job) {
	if s.cfg.Notify != nil {
		s.cfg.Notify("job", j.view())
	}
}

// Submit validates, cache-checks and (on a miss) enqueues a request.
// The returned JobView is already done when the request hit the cache.
// ErrQueueFull maps to HTTP 503.
func (s *Service) Submit(req Request) (JobView, error) {
	if err := req.Validate(); err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	s.seq++
	j := &job{
		id:   fmt.Sprintf("job-%d", s.seq),
		seq:  s.seq,
		req:  req,
		done: make(chan struct{}),
	}
	j.tr = obs.NewTrace(j.id, s.cfg.Log)
	s.jobs[j.id] = j
	s.mu.Unlock()

	lookup := j.tr.Start(obs.CatCache, "cache-lookup", 0)
	arts, manHash, hit := s.lookupCache(req)
	lookup.End("key", req.CacheKey(), "hit", hit)
	if hit {
		j.tr.Instant(obs.CatCache, "cache-hit", 0, "manifest", manHash)
		s.cfg.Log.Info("cache hit",
			"trace_id", j.tr.ID(), "job", j.id, "method", req.Method,
			"spec_hash", req.Spec.Hash(), "manifest", manHash)
		j.mu.Lock()
		j.state = StateDone
		j.cached = true
		j.artifacts = arts
		j.mu.Unlock()
		close(j.done)
		s.notify(j)
		return j.view(), nil
	}

	j.state = StateQueued
	j.enqueuedAt = time.Now()
	select {
	case s.queue <- j:
	default:
		j.mu.Lock()
		j.state = StateFailed
		j.err = "queue full"
		j.mu.Unlock()
		close(j.done)
		s.cfg.Log.Warn("job rejected: queue full",
			"trace_id", j.tr.ID(), "job", j.id, "method", req.Method)
		return j.view(), ErrQueueFull
	}
	s.cfg.Log.Info("job queued",
		"trace_id", j.tr.ID(), "job", j.id, "method", req.Method,
		"spec_hash", req.Spec.Hash(), "queue_depth", len(s.queue))
	s.notify(j)
	return j.view(), nil
}

// ErrQueueFull reports a submit rejected by the bounded queue.
var ErrQueueFull = errors.New("service: job queue full")

// Job returns one job's view.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs lists every job, newest first.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].seq > js[b].seq })
	out := make([]JobView, len(js))
	for i, j := range js {
		out[i] = j.view()
	}
	return out
}

// Wait blocks until the job completes (done or failed) or ctx expires.
func (s *Service) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("service: no job %q", id)
	}
	select {
	case <-j.done:
		return j.view(), nil
	case <-ctx.Done():
		return j.view(), ctx.Err()
	}
}

// Store exposes the underlying artifact store (the HTTP artifact
// handler reads through it).
func (s *Service) Store() *store.Store { return s.cfg.Store }

func (s *Service) drain() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			// Fail whatever is still queued so waiters unblock.
			for {
				select {
				case j := <-s.queue:
					j.mu.Lock()
					j.state = StateFailed
					j.err = "service shut down"
					j.mu.Unlock()
					close(j.done)
				default:
					return
				}
			}
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one queued job to completion. A panicking scenario
// (bad spec corners that pass validation) fails the job, never the
// process.
func (s *Service) runJob(j *job) {
	j.tr.AddNow(obs.CatJob, "queue-wait", 0, time.Since(j.enqueuedAt))
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	s.notify(j)
	s.cfg.Log.Info("job started",
		"trace_id", j.tr.ID(), "job", j.id, "method", j.req.Method,
		"spec_hash", j.req.Spec.Hash())
	t0 := time.Now()

	arts, err := func() (arts map[string]Artifact, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		reg := metrics.NewRegistry()
		execSpan := j.tr.Start(obs.CatJob, "execute", 0)
		out, err := execute(obs.NewContext(s.ctx, j.tr), j.req, reg, s.cfg.Workers, func(p runner.Progress) {
			j.mu.Lock()
			j.progress = p
			j.mu.Unlock()
			s.notify(j)
		})
		execSpan.End("method", j.req.Method, "err", err != nil)
		if err != nil {
			return nil, err
		}
		return s.storeArtifacts(j.req, out, reg, j.tr)
	}()

	j.mu.Lock()
	events := j.progress.Events
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		// Computed events land in the live sim_events_total a co-resident
		// simulation feeds, before the job reads done. Cache hits never
		// reach this line — that delta is the "did we simulate" signal
		// the smoke test asserts on.
		s.cfg.Metrics.Counter("sim_events_total",
			"Events dispatched by the simulation engine.").Add(events)
		j.state = StateDone
		j.artifacts = arts
	}
	j.mu.Unlock()
	if err != nil {
		s.cfg.Log.Error("job failed",
			"trace_id", j.tr.ID(), "job", j.id, "method", j.req.Method,
			"wall_s", time.Since(t0).Seconds(), "error", err.Error())
	} else {
		s.cfg.Log.Info("job done",
			"trace_id", j.tr.ID(), "job", j.id, "method", j.req.Method,
			"wall_s", time.Since(t0).Seconds(), "events", events,
			"spans", len(j.tr.Spans()), "spans_dropped", j.tr.Dropped())
	}
	close(j.done)
	s.notify(j)
}

// Ready is the service's readiness probe: the artifact store must be
// reachable on disk and the submit queue below capacity. The telemetry
// server's /readyz aggregates it.
func (s *Service) Ready() error {
	if fi, err := os.Stat(s.cfg.Store.Root()); err != nil || !fi.IsDir() {
		return fmt.Errorf("artifact store root %q unavailable", s.cfg.Store.Root())
	}
	if len(s.queue) >= cap(s.queue) {
		return fmt.Errorf("job queue full (%d/%d)", len(s.queue), cap(s.queue))
	}
	return nil
}

// storeArtifacts writes a computed job's outputs into the store and
// links the cache key at the resulting manifest. The job trace is
// serialized last (as trace_spans.json) so it covers every span the run
// recorded; tr may be nil in tests.
func (s *Service) storeArtifacts(req Request, out *experiment.Output, reg *metrics.Registry, tr *obs.Trace) (map[string]Artifact, error) {
	hashes := map[string]string{}

	put := func(name string, b []byte) error {
		h, err := s.cfg.Store.PutBytes(b)
		if err != nil {
			return fmt.Errorf("artifact %s: %w", name, err)
		}
		hashes[name] = h
		return nil
	}

	request, err := req.canonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("artifact request.json: %w", err)
	}
	if err := put("request.json", request); err != nil {
		return nil, err
	}
	rows, err := json.Marshal(out.Rows)
	if err != nil {
		return nil, fmt.Errorf("artifact rows.json: %w", err)
	}
	if err := put("rows.json", rows); err != nil {
		return nil, err
	}
	for name, t := range out.Tables {
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			return nil, fmt.Errorf("artifact %s: %w", name, err)
		}
		if err := put(name, buf.Bytes()); err != nil {
			return nil, err
		}
	}
	met, err := deterministicMetricsJSON(reg)
	if err != nil {
		return nil, fmt.Errorf("artifact metrics.json: %w", err)
	}
	if err := put("metrics.json", met); err != nil {
		return nil, err
	}
	if out.Trace != nil {
		var buf bytes.Buffer
		if err := obs.WriteChrome(&buf, out.Trace); err != nil {
			return nil, fmt.Errorf("artifact trace.json: %w", err)
		}
		if err := put("trace.json", buf.Bytes()); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		spans, err := tr.ChromeJSON(out.Trace)
		if err != nil {
			return nil, fmt.Errorf("artifact trace_spans.json: %w", err)
		}
		if err := put("trace_spans.json", spans); err != nil {
			return nil, err
		}
	}

	man, err := json.Marshal(manifest{
		V: RequestSchemaVersion, Method: req.Method,
		SpecHash: req.Spec.Hash(), Artifacts: hashes,
	})
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	manHash, err := s.cfg.Store.PutBytes(man)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := s.cfg.Store.Link(req.CacheKey(), manHash); err != nil {
		return nil, err
	}
	return s.describe(hashes)
}

// hostTimeSeries names the per-job registry series measured in real
// (host) seconds. Everything else a scenario records is virtual
// simulated time or event counts — bit-reproducible — but these vary
// run to run, so the metrics.json artifact drops them to keep identical
// requests producing identical content addresses.
var hostTimeSeries = map[string]bool{
	"charm_lb_strategy_wall_seconds_total": true,
	"sim_shard_barrier_wait_seconds_total": true,
}

// deterministicMetricsJSON renders the per-job registry in WriteJSON's
// shape with host-time series removed.
func deterministicMetricsJSON(reg *metrics.Registry) ([]byte, error) {
	snap := reg.Gather()
	kept := snap.Series[:0]
	for _, s := range snap.Series {
		if !hostTimeSeries[s.Name] {
			kept = append(kept, s)
		}
	}
	snap.Series = kept
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// lookupCache resolves a request's cache key to its stored artifacts and
// the manifest hash they hang off.
func (s *Service) lookupCache(req Request) (map[string]Artifact, string, bool) {
	manHash, err := s.cfg.Store.Resolve(req.CacheKey())
	if err != nil {
		return nil, "", false
	}
	b, err := s.cfg.Store.Get(manHash)
	if err != nil {
		return nil, "", false
	}
	var man manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, "", false
	}
	arts, err := s.describe(man.Artifacts)
	if err != nil {
		return nil, "", false // pruned objects degrade to recomputation
	}
	return arts, manHash, true
}

// describe turns a name→hash map into full Artifact records with sizes
// and stable URLs, verifying every object exists.
func (s *Service) describe(hashes map[string]string) (map[string]Artifact, error) {
	arts := make(map[string]Artifact, len(hashes))
	for name, h := range hashes {
		f, size, err := s.cfg.Store.OpenObject(h)
		if err != nil {
			return nil, err
		}
		f.Close()
		arts[name] = Artifact{Hash: h, URL: "/api/v1/artifacts/" + h, Size: size}
	}
	return arts, nil
}
