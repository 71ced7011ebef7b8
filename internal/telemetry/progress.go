package telemetry

import (
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/runner"
)

// RunState is the /api/v1/run document: the last scenario account the
// run's pool announced, timed against the server's start.
type RunState struct {
	runner.Progress
	// ElapsedSeconds is real time since the server was created.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// EventsPerSec is the cumulative simulated-event throughput.
	EventsPerSec float64 `json:"events_per_sec"`
	// EtaSeconds extrapolates the remaining scenarios from the mean
	// per-scenario rate so far; 0 until one scenario finishes or once the
	// run is done.
	EtaSeconds float64 `json:"eta_seconds"`
	Finished   bool    `json:"finished"`
	// ScenarioWall is the per-scenario wall-time distribution the pool
	// records in the served registry, with estimated p50/p95/p99.
	ScenarioWall metrics.HistogramSnapshot `json:"scenario_wall_seconds"`
}

// SetProgress keeps p as the run's scenario account and pushes the new
// state to /events subscribers — the sink a runner.Pool's OnProgress
// points at. Safe for concurrent use.
func (s *Server) SetProgress(p runner.Progress) {
	s.runMu.Lock()
	s.progress = p
	s.runMu.Unlock()
	s.hub.broadcast("progress", s.State())
}

// State reads the run's state now.
func (s *Server) State() RunState {
	s.runMu.Lock()
	st := RunState{Progress: s.progress, Finished: s.finished}
	s.runMu.Unlock()
	st.ElapsedSeconds = time.Since(s.start).Seconds()
	st.ScenarioWall = s.wall.Snapshot()
	if st.ElapsedSeconds > 0 {
		st.EventsPerSec = float64(st.Events) / st.ElapsedSeconds
	}
	if remaining := st.ScenariosTotal - st.ScenariosDone; !st.Finished && st.ScenariosDone > 0 && remaining > 0 {
		st.EtaSeconds = st.ElapsedSeconds / float64(st.ScenariosDone) * float64(remaining)
	}
	return st
}
