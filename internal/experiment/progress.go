package experiment

import "time"

// Progress receives scenario-batch lifecycle notifications — the hook
// behind the telemetry server's /api/run fleet view. Implementations
// must be safe for concurrent use: under a parallel executor the
// Scenario callbacks arrive from many worker goroutines at once.
//
// The executor that runs a batch notifies: runner.Pool through its own
// Progress field. A batch dispatched without an Executor runs
// sequentially and reports nothing. Telemetry trackers accumulate
// across batches, so a multi-batch run (cmd/figures) reports fleet-wide
// totals.
type Progress interface {
	// BatchQueued announces n scenarios entering the queue.
	BatchQueued(n int)
	// ScenarioStarted marks batch index i as in flight.
	ScenarioStarted(index int)
	// ScenarioDone reports one finished scenario: its batch index, real
	// execution time, and simulation events executed.
	ScenarioDone(index int, wall time.Duration, events uint64)
}
