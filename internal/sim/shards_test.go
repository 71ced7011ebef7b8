package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"cloudlb/internal/metrics"
)

// shardTrace is a concurrency-safe observation log for shard tests. Real
// model events must never share state across shards like this — the
// mutex exists precisely because test events on different shards fire
// concurrently inside a window.
type shardTrace struct {
	mu      sync.Mutex
	entries []shardTraceEntry
}

type shardTraceEntry struct {
	at    Time
	actor int
	step  int
}

func (tr *shardTrace) add(at Time, actor, step int) {
	tr.mu.Lock()
	tr.entries = append(tr.entries, shardTraceEntry{at, actor, step})
	tr.mu.Unlock()
}

func (tr *shardTrace) sorted() []shardTraceEntry {
	out := append([]shardTraceEntry{}, tr.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		if out[i].actor != out[j].actor {
			return out[i].actor < out[j].actor
		}
		return out[i].step < out[j].step
	})
	return out
}

// ringActors schedules a fixed virtual workload — four actors, each a
// chain of timed steps that also pass a token to the next actor with a
// full lookahead of delay — onto n shards and returns the observed
// timeline. The timeline is a pure function of the model, so every n
// must produce the same one.
func ringActors(t *testing.T, n int) []shardTraceEntry {
	t.Helper()
	const actors, steps = 4, 12
	const look = Time(0.05)
	s := NewShards(n, look)
	defer s.Close()
	var tr shardTrace

	var chain func(actor, step int) func()
	chain = func(actor, step int) func() {
		shard := actor % n
		return func() {
			e := s.Engine(shard)
			tr.add(e.Now(), actor, step)
			if step+1 < steps {
				e.After(0.01, chain(actor, step+1))
			}
			// Token to the next actor, exactly one lookahead away — the
			// tightest inter-shard send the conservative windows admit.
			next := (actor + 1) % actors
			s.Cross(shard, next%n, e.Now()+look, chain(next, steps+step))
		}
	}
	for a := 0; a < actors; a++ {
		s.Engine(a%n).At(Time(0.005*float64(a+1)), chain(a, 0))
	}
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Now(); got != 1 {
		t.Fatalf("Now() = %v after RunUntil(1)", got)
	}
	return tr.sorted()
}

// TestShardsReproduceSingleShardTimeline is the core contract: the same
// model on 1, 2 and 4 shards yields the same virtual timeline.
func TestShardsReproduceSingleShardTimeline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	want := ringActors(t, 1)
	if len(want) == 0 {
		t.Fatal("workload produced no events")
	}
	for _, n := range []int{2, 4} {
		got := ringActors(t, n)
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d events, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d shards: event %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// TestGlobalEventsParkAllShards asserts the global-event contract: every
// shard clock equals the global's timestamp while it runs.
func TestGlobalEventsParkAllShards(t *testing.T) {
	s := NewShards(3, 0.05)
	defer s.Close()
	// Background activity on every shard so the windows actually run.
	for i := 0; i < 3; i++ {
		e := s.Engine(i)
		var tick func()
		tick = func() {
			if e.Now() < 0.9 {
				e.After(0.013, tick)
			}
		}
		e.At(0.001, tick)
	}
	fired := 0
	s.GlobalAt(0.5, func() {
		fired++
		for i := 0; i < 3; i++ {
			if got := s.Engine(i).Now(); got != 0.5 {
				t.Errorf("shard %d clock %v inside global at 0.5", i, got)
			}
		}
		if s.Now() != 0.5 {
			t.Errorf("coordinator clock %v inside global at 0.5", s.Now())
		}
		s.GlobalAfter(0.25, func() { fired++ })
	})
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired %d globals, want 2", fired)
	}
}

// TestSequentialDemandDefersSameShardEvents asserts the early-stop poll:
// once an event raises sequential demand, every later event on the SAME
// shard runs in merged mode with the demand still held — never inside the
// window that was in flight. (Events on other shards may legitimately
// finish their window first; they are shard-local by contract, so the
// test makes no ordering claim about them.)
func TestSequentialDemandDefersSameShardEvents(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := NewShards(2, 0.5) // big lookahead: one window would cover it all
	defer s.Close()
	var order []string // all appends run on the coordinator goroutine
	s.Engine(0).At(0.01, func() {
		s.RequireSequential()
	})
	s.Engine(0).At(0.02, func() {
		if !s.Sequential() {
			t.Error("same-shard follow-up ran outside sequential mode")
		}
		order = append(order, "deferred")
	})
	s.Engine(0).At(0.4, func() {
		order = append(order, "release")
		s.ReleaseSequential()
	})
	// After the release the run goes parallel again; shard 1's event is
	// alone in its window and must still fire.
	s.Engine(1).At(0.6, func() {
		if s.Sequential() {
			t.Error("post-release event still in sequential mode")
		}
		order = append(order, "parallel")
	})
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	want := []string{"deferred", "release", "parallel"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestForceSequentialRunsMerged pins ForceSequential: everything executes
// in global timestamp order on the coordinator goroutine, so unsynchronized
// shared state is safe (the race detector patrols this test).
func TestForceSequentialRunsMerged(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := NewShards(4, 0.01)
	defer s.Close()
	s.ForceSequential()
	if !s.Sequential() {
		t.Fatal("Sequential() false after ForceSequential")
	}
	var ats []Time
	for i := 0; i < 4; i++ {
		e := s.Engine(i)
		for k := 0; k < 5; k++ {
			at := Time(0.01*float64(k+1)) + Time(0.002*float64(i))
			e.At(at, func() { ats = append(ats, at) })
		}
	}
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if len(ats) != 20 {
		t.Fatalf("fired %d events, want 20", len(ats))
	}
	for i := 1; i < len(ats); i++ {
		if ats[i] < ats[i-1] {
			t.Fatalf("merged order violated: %v after %v", ats[i], ats[i-1])
		}
	}
}

// TestShardsEventLimit asserts the limit aborts a runaway model and that
// the failure is sticky.
func TestShardsEventLimit(t *testing.T) {
	s := NewShards(2, 0.05)
	defer s.Close()
	s.SetEventLimit(10)
	e := s.Engine(0)
	var spin func()
	spin = func() { e.After(0.001, spin) }
	e.At(0, spin)
	if err := s.RunUntil(1); err == nil {
		t.Fatal("no error from exceeded event limit")
	}
	if err := s.RunUntil(2); err == nil {
		t.Fatal("error not sticky on re-run")
	}
}

// TestShardsClose asserts Close semantics: idempotent, and RunUntil
// afterwards refuses to run.
func TestShardsClose(t *testing.T) {
	s := NewShards(2, 0.05)
	s.Engine(0).At(0.01, func() {})
	s.Engine(1).At(0.01, func() {})
	if err := s.RunUntil(0.1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if err := s.RunUntil(1); err == nil {
		t.Fatal("RunUntil after Close did not fail")
	}
}

// TestShardsExecutedCountsGlobals asserts Executed covers shard events
// and coordinator globals alike.
func TestShardsExecutedCountsGlobals(t *testing.T) {
	s := NewShards(2, 0.05)
	defer s.Close()
	s.Engine(0).At(0.01, func() {})
	s.Engine(1).At(0.02, func() {})
	s.GlobalAt(0.5, func() {})
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Executed(); got != 3 {
		t.Fatalf("Executed() = %d, want 3", got)
	}
}

// TestNewShardsValidation pins the constructor contracts.
func TestNewShardsValidation(t *testing.T) {
	for _, c := range []struct {
		n    int
		look Time
	}{{0, 1}, {-1, 1}, {1<<16 + 1, 1}, {2, 0}, {2, -0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShards(%d, %v) did not panic", c.n, c.look)
				}
			}()
			NewShards(c.n, c.look)
		}()
	}
}

// sameInstantArrivals schedules four deliveries to node 1 that all land
// at t = 2: A sent from node 0 at 0.5, B scheduled on node 1 at 0.5, C on
// node 1 at 0.7 and D sent from node 0 at 0.9, with node i on shard
// min(i, n-1). It returns the order they fire in. The senders are built
// in node order, as the runtime builds its PEs.
func sameInstantArrivals(t *testing.T, n int) string {
	t.Helper()
	s := NewShards(n, 1)
	defer s.Close()
	src, dst := 0, min(1, n-1)
	var order []string // appended on dst's engine only
	deliver := func(name string) func() { return func() { order = append(order, name) } }
	send := func(at Time, name string) {
		s.Engine(src).At(at, func() { s.Cross(src, dst, 2, deliver(name)) })
	}
	local := func(at Time, name string) {
		e := s.Engine(dst)
		e.At(at, func() { e.At(2, deliver(name)) })
	}
	send(0.5, "A")
	local(0.5, "B")
	local(0.7, "C")
	send(0.9, "D")
	if err := s.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	return strings.Join(order, "")
}

// TestCrossDeliveryKeepsOneEngineOrder asserts that deliveries which tie
// local events' timestamp fire in one engine's order at two shards: by
// send time, and at the same send time the lower shard first. Sequence
// numbers taken at the barrier alone would fire the local events first
// (BCAD).
func TestCrossDeliveryKeepsOneEngineOrder(t *testing.T) {
	want := sameInstantArrivals(t, 1)
	if want != "ABCD" {
		t.Fatalf("one engine fired %s, want ABCD", want)
	}
	if got := sameInstantArrivals(t, 2); got != want {
		t.Errorf("two shards fired %s, one engine %s", got, want)
	}
}

// mergedTiedRoots runs three events that tie at t=2 on n shards forced
// merged. Shard 0 schedules X at t=0.9; the last shard schedules Y at
// t=0.5 and Z at t=0.9, after X. It returns the firing order.
func mergedTiedRoots(t *testing.T, n int) string {
	t.Helper()
	s := NewShards(n, 1)
	defer s.Close()
	s.ForceSequential()
	var order []string // merged mode runs every event on the coordinator
	at2 := func(shard int, at Time, name string) {
		e := s.Engine(shard)
		e.At(at, func() { e.At(2, func() { order = append(order, name) }) })
	}
	last := n - 1
	at2(0, 0.9, "X")
	at2(last, 0.5, "Y")
	at2(last, 0.9, "Z")
	if err := s.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if got := s.MergedEvents(); n > 1 && got != 6 {
		t.Errorf("MergedEvents = %d at %d shards, want 6", got, n)
	}
	return strings.Join(order, "")
}

// TestMergedModeKeepsOneEngineOrder asserts that merged-sequential mode
// fires roots tied on their timestamp in one engine's order: by the time
// they were scheduled at, then by scheduling shard. Picking the lowest
// shard at the smallest timestamp fires X before Y (XYZ).
func TestMergedModeKeepsOneEngineOrder(t *testing.T) {
	want := mergedTiedRoots(t, 1)
	if want != "YXZ" {
		t.Fatalf("one engine fired %s, want YXZ", want)
	}
	if got := mergedTiedRoots(t, 2); got != want {
		t.Errorf("two shards merged fired %s, one engine %s", got, want)
	}
}

// TestShardsRegisterEngineSeriesOnly asserts that a multi-shard scheduler
// registers the same two series as one shard, so a run's registry has the
// same shape at every shard count, and that the per-shard counts the
// registry no longer holds come from ShardEvents and ShardWindows.
func TestShardsRegisterEngineSeriesOnly(t *testing.T) {
	s := NewShards(2, 0.05)
	defer s.Close()
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	for i := 0; i < 2; i++ {
		e := s.Engine(i)
		for k := 1; k <= 3+i; k++ {
			e.At(Time(k)*0.1, func() {})
		}
	}
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sr := range reg.Gather().Series {
		names = append(names, sr.Name)
	}
	if fmt.Sprint(names) != "[sim_event_heap_depth_max sim_events_total]" {
		t.Errorf("two shards registered %v, want the engine's two series", names)
	}
	if got := fmt.Sprint(s.ShardEvents()); got != "[3 4]" {
		t.Errorf("ShardEvents = %s, want [3 4]", got)
	}
	// Each event is 0.1 s from the next, twice the lookahead, so each
	// has a window of its own.
	if got := fmt.Sprint(s.ShardWindows()); got != "[3 4]" {
		t.Errorf("ShardWindows = %s, want [3 4]", got)
	}
}
