package runner

import (
	"context"
	"sync"
	"testing"

	"cloudlb/internal/experiment"
)

// snapshots records every account a pool hands its OnProgress hook.
type snapshots struct {
	mu   sync.Mutex
	seen []Progress
}

func (s *snapshots) add(p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen = append(s.seen, p)
}

// TestPoolProgress checks RunBatch announces its account on every
// change — the batch queued, then one start and one finish per scenario,
// from however many workers run them — in order, so the last snapshot is
// the whole batch, and that Totals and the batch's own account agree.
func TestPoolProgress(t *testing.T) {
	var s snapshots
	pool := &Pool{Workers: 2, OnProgress: s.add}
	batch := experiment.Spec{
		App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1,
	}.Scenarios()
	results, acct, err := pool.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	for _, r := range results {
		events += r.Events
	}
	want := Progress{ScenariosTotal: len(batch), ScenariosDone: len(batch), Events: events}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[0] != (Progress{ScenariosTotal: len(batch)}) {
		t.Fatalf("first announcement %+v, want the queued batch", s.seen[0])
	}
	starts, finishes := 0, 0
	for i := 1; i < len(s.seen); i++ {
		prev, cur := s.seen[i-1], s.seen[i]
		started := prev
		started.ScenariosInFlight++
		switch {
		case cur == started:
			starts++
		case cur.ScenariosTotal == prev.ScenariosTotal && cur.ScenariosDone == prev.ScenariosDone+1 &&
			cur.ScenariosInFlight == prev.ScenariosInFlight-1 && cur.Events > prev.Events:
			finishes++
		default:
			t.Fatalf("announcement %d %+v is neither a start nor a finish after %+v", i, cur, prev)
		}
	}
	if starts != len(batch) || finishes != len(batch) {
		t.Fatalf("%d starts and %d finishes, want %d each", starts, finishes, len(batch))
	}
	if last := s.seen[len(s.seen)-1]; last != want {
		t.Fatalf("last announcement %+v, want %+v", last, want)
	}
	if acct != want {
		t.Fatalf("batch account %+v, want %+v", acct, want)
	}
	if total, wall := pool.Totals(); total != want || wall <= 0 {
		t.Fatalf("Totals %+v over %v, want %+v", total, wall, want)
	}
}

// TestPoolMidBatchCancellation cancels from inside the batch, via an
// OnProgress hook that fires on the first completion: a one-worker pool
// must observe the cancellation at the next scenario boundary and stop,
// leaving the remainder unrun, and Spec.Evaluate must surface the error.
// The pool's account keeps the finished scenario.
func TestPoolMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var s snapshots
	pool := &Pool{Workers: 1, OnProgress: func(p Progress) {
		s.add(p)
		if p.ScenariosDone > 0 {
			cancel()
		}
	}}
	spec := experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Seeds: []int64{1, 2}, Scale: 0.1}
	if _, err := spec.Evaluate(ctx, experiment.Options{Executor: pool.Executor()}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total, _ := pool.Totals()
	if total.ScenariosDone != 1 || total.ScenariosInFlight != 0 || total.Events == 0 {
		t.Fatalf("ran %+v, want 1 scenario done (cancellation after the first)", total)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if last := s.seen[len(s.seen)-1]; last != total {
		t.Fatalf("last announcement %+v, Totals %+v", last, total)
	}
}
