package runner

import (
	"context"
	"sync"
	"testing"
	"time"

	"cloudlb/internal/experiment"
)

type fakeProgress struct {
	mu      sync.Mutex
	queued  int
	started []int
	done    []int
	events  uint64
}

func (f *fakeProgress) BatchQueued(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queued += n
}

func (f *fakeProgress) ScenarioStarted(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started = append(f.started, i)
}

func (f *fakeProgress) ScenarioDone(i int, wall time.Duration, events uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done = append(f.done, i)
	f.events += events
}

// TestPoolProgress checks RunBatch notifies the Progress hook once per
// scenario with batch indices, from however many workers run them.
func TestPoolProgress(t *testing.T) {
	f := &fakeProgress{}
	pool := &Pool{Workers: 2, Progress: f}
	batch := experiment.Spec{
		App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1,
	}.Scenarios()
	results, _, err := pool.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.queued != len(batch) {
		t.Fatalf("queued %d, want %d", f.queued, len(batch))
	}
	if len(f.started) != len(batch) || len(f.done) != len(batch) {
		t.Fatalf("started/done %d/%d, want %d each", len(f.started), len(f.done), len(batch))
	}
	seen := make(map[int]bool)
	for _, i := range f.done {
		if i < 0 || i >= len(batch) || seen[i] {
			t.Fatalf("bad or duplicate done index %d", i)
		}
		seen[i] = true
	}
	var want uint64
	for _, r := range results {
		want += r.Events
	}
	if f.events != want {
		t.Fatalf("events %d, want %d", f.events, want)
	}
}

// cancellingProgress wraps fakeProgress and cancels its context after
// the first scenario completes.
type cancellingProgress struct {
	fakeProgress
	cancel context.CancelFunc
}

func (c *cancellingProgress) ScenarioDone(i int, wall time.Duration, events uint64) {
	c.fakeProgress.ScenarioDone(i, wall, events)
	c.cancel()
}

// TestPoolMidBatchCancellation cancels from inside the batch, via a
// Progress hook that fires on the first completion: a one-worker pool
// must observe the cancellation at the next scenario boundary and stop,
// leaving the remainder unrun, and Spec.Evaluate must surface the error.
func TestPoolMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &cancellingProgress{cancel: cancel}
	pool := &Pool{Workers: 1, Progress: prog}
	spec := experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1}
	if _, err := spec.Evaluate(ctx, experiment.Options{Executor: pool.Executor()}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	prog.mu.Lock()
	defer prog.mu.Unlock()
	if len(prog.done) != 1 {
		t.Fatalf("ran %d scenarios, want 1 (cancellation after the first)", len(prog.done))
	}
}
