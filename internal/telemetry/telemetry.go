// Package telemetry embeds a dependency-free (stdlib net/http)
// observability server into the cmd/ binaries, behind the shared
// -serve flag of profiling.Flags.
//
// The paper diagnoses interference by watching per-core timelines while
// the job runs (Charm++ Projections attaches to the live runtime); the
// figure sweeps here run for minutes, and a production load-balancing
// service exposes its state continuously. The server renders the live
// metrics.Registry as a Prometheus scrape, streams run progress and
// LB-step deltas over SSE, serves the standard pprof handlers, and hosts
// a single self-contained HTML dashboard:
//
//	GET /                  dashboard (no external assets)
//	GET /metrics           Prometheus 0.0.4 text, gathered live
//	GET /healthz           liveness: 200 while the process serves
//	GET /readyz            readiness: 200 when every registered probe passes
//	GET /api/v1/run        JSON fleet progress (RunState)
//	GET /api/v1/lbsteps    JSON LB-step log of the registry (?since=N for deltas)
//	GET /api/v1/metrics    alias of /metrics under the versioned surface
//	GET /api/v1/logs       recent structured log records (ndjson ring)
//	GET /events            SSE: progress, lbstep, job, log, done events
//
// The scenario service (internal/service) mounts its /api/v1/jobs and /api/v1/artifacts
// endpoints on the same mux via Handle.
//
// Everything served is backed by atomics or mutex-guarded copies, so
// scrapes never touch live scheduler state (see machine.PublishMetrics)
// and run safely while the scenario fleet executes.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/runner"
)

// Server is the embedded observability server. Construct with NewServer;
// the registry may be nil (the matching endpoints serve empty documents).
type Server struct {
	reg *metrics.Registry
	hub *hub
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
	log *obs.Logger

	// The run's state behind /api/v1/run: the last account SetProgress
	// was handed, whether Drain has finished the run, and the pool's
	// per-scenario wall histogram in reg.
	start    time.Time
	wall     *metrics.Histogram
	runMu    sync.Mutex
	progress runner.Progress
	finished bool

	// readiness probes behind /readyz, keyed by check name.
	readyMu sync.Mutex
	ready   map[string]func() error
}

// lbStepEvent is the SSE payload for one appended LB step.
type lbStepEvent struct {
	Index int            `json:"index"`
	Step  metrics.LBStep `json:"step"`
}

// NewServer wires the endpoints over the given registry and subscribes
// to its LB-step log: every appended row is pushed to /events
// subscribers, as is every account SetProgress is handed.
func NewServer(reg *metrics.Registry) *Server {
	s := &Server{reg: reg, hub: newHub(), mux: http.NewServeMux(),
		start: time.Now(), wall: runner.ScenarioWall(reg), ready: map[string]func() error{}}
	// The live registry doubles as the process health surface: runtime
	// series plus the SSE slow-consumer drop counter.
	metrics.RegisterRuntimeCollector(reg)
	s.hub.dropped = reg.Counter("telemetry_sse_dropped_total",
		"SSE events dropped because a subscriber's send queue was full.")
	reg.OnLBStep(func(index int, step metrics.LBStep) {
		s.hub.broadcast("lbstep", lbStepEvent{Index: index, Step: step})
	})
	s.mux.HandleFunc("GET /{$}", s.handleDashboard)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /api/v1/run", s.handleRun)
	s.mux.HandleFunc("GET /api/v1/lbsteps", s.handleLBSteps)
	s.mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/v1/logs", s.handleLogs)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the routed endpoints (httptest hosts this directly).
func (s *Server) Handler() http.Handler { return s.mux }

// Handle mounts additional routes on the server's mux — the scenario
// service registers its /api/v1/jobs and /api/v1/artifacts endpoints
// through this, so one listener serves telemetry and jobs.
func (s *Server) Handle(register func(mux *http.ServeMux)) { register(s.mux) }

// Broadcast pushes a named JSON event to every /events subscriber (the
// scenario service announces job transitions here).
func (s *Server) Broadcast(name string, v any) { s.hub.broadcast(name, v) }

// SetLog attaches the process logger: its ring serves GET /api/v1/logs
// and every record is forwarded to /events subscribers as a "log"
// event. A nil logger leaves both surfaces empty.
func (s *Server) SetLog(l *obs.Logger) {
	s.log = l
	l.SetNotify(func(line []byte) { s.hub.broadcastRaw("log", line) })
}

// AddReadiness registers a named /readyz probe; the endpoint answers
// 503 while any probe errors. Probes must be cheap and non-blocking.
func (s *Server) AddReadiness(name string, fn func() error) {
	s.readyMu.Lock()
	s.ready[name] = fn
	s.readyMu.Unlock()
}

// Start listens on addr (":0" picks a free port) and serves in the
// background. It returns the bound address for the caller to print.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Drain completes the server's lifecycle without losing the final
// scrape: it marks the run finished (pushing a "done" event with the
// final state to SSE subscribers), keeps every endpoint up for wait so
// scrapers and browsers can take a final reading, then ends the SSE
// streams and shuts the listener down gracefully — requests already in
// flight run to completion.
func (s *Server) Drain(wait time.Duration) error {
	s.runMu.Lock()
	s.finished = true
	s.runMu.Unlock()
	s.hub.broadcast("done", s.State())
	if wait > 0 {
		time.Sleep(wait)
	}
	s.hub.close()
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, dashboardHTML)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleRun(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.State())
}

// handleHealthz is pure liveness: if this handler runs, the process and
// its listener are alive.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz runs every registered probe and reports per-check
// results; any failure turns the whole answer 503 so a load balancer
// stops routing jobs here while (say) the queue is saturated.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.readyMu.Lock()
	probes := make(map[string]func() error, len(s.ready))
	for name, fn := range s.ready {
		probes[name] = fn
	}
	s.readyMu.Unlock()
	checks := make(map[string]string, len(probes))
	status := http.StatusOK
	for name, fn := range probes {
		if err := fn(); err != nil {
			checks[name] = err.Error()
			status = http.StatusServiceUnavailable
		} else {
			checks[name] = "ok"
		}
	}
	doc := struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks,omitempty"`
	}{Status: "ok", Checks: checks}
	if status != http.StatusOK {
		doc.Status = "unavailable"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleLogs streams the logger's ring as ndjson, oldest first — the
// same records the process wrote to stderr, one JSON object per line.
func (s *Server) handleLogs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, line := range s.log.Recent() {
		_, _ = w.Write(line)
		_, _ = io.WriteString(w, "\n")
	}
}

func (s *Server) handleLBSteps(w http.ResponseWriter, r *http.Request) {
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = n
	}
	steps, total := s.reg.LBSteps(since)
	if steps == nil {
		steps = []metrics.LBStep{}
	}
	writeJSON(w, struct {
		Since int              `json:"since"`
		Total int              `json:"total"`
		Steps []metrics.LBStep `json:"steps"`
	}{Since: since, Total: total, Steps: steps})
}

// handleEvents is the SSE stream: the current run state is delivered
// immediately on connect (no waiting for the next change), then every
// progress/lbstep/done broadcast until the client disconnects or the
// server drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	ch, cancel, closed := s.hub.subscribe()
	defer cancel()
	if err := writeSSEJSON(w, "progress", s.State()); err != nil {
		return
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-closed:
			return
		case ev := <-ch:
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func writeSSEJSON(w io.Writer, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
