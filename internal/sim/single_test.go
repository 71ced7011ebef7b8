package sim

import (
	"fmt"
	"strings"
	"testing"

	"cloudlb/internal/metrics"
)

// oneShard builds the two one-shard schedulers the repository uses: Single
// over a caller's engine (direct engine drivers) and NewShards(1, …)
// (experiment.Run). Both must behave exactly like their engine.
func oneShard() map[string]*Shards {
	return map[string]*Shards{
		"Single":       Single(NewEngine()),
		"NewShards(1)": NewShards(1, 0.05),
	}
}

// TestSingleGlobalEventsAreEngineEvents asserts that with one shard a
// global event is a plain engine event: it interleaves with engine events
// at the same instant in scheduling order, not after them as a window
// barrier would run it.
func TestSingleGlobalEventsAreEngineEvents(t *testing.T) {
	for name, s := range oneShard() {
		e := s.Engine(0)
		var order []string
		e.At(0.5, func() { order = append(order, "engine-1") })
		s.GlobalAt(0.5, func() {
			order = append(order, "global")
			s.GlobalAfter(0, func() { order = append(order, "global-after") })
			e.After(0, func() { order = append(order, "engine-after") })
		})
		e.At(0.5, func() { order = append(order, "engine-2") })
		if err := s.RunUntil(1); err != nil {
			t.Fatal(err)
		}
		want := "[engine-1 global engine-2 global-after engine-after]"
		if got := fmt.Sprint(order); got != want {
			t.Errorf("%s: order %s, want %s", name, got, want)
		}
		if got := s.Executed(); got != 5 || e.Executed() != 5 {
			t.Errorf("%s: Executed() = %d (engine %d), want 5", name, got, e.Executed())
		}
	}
}

// TestSingleNowReadsEngine asserts the one-shard clock is the engine's,
// also when the caller drives the engine directly.
func TestSingleNowReadsEngine(t *testing.T) {
	for name, s := range oneShard() {
		e := s.Engine(0)
		e.At(0.25, func() {
			if got := s.Now(); got != 0.25 {
				t.Errorf("%s: Now() = %v inside an event at 0.25", name, got)
			}
		})
		if err := e.RunUntil(0.75); err != nil {
			t.Fatal(err)
		}
		if got := s.Now(); got != 0.75 {
			t.Errorf("%s: Now() = %v after Engine.RunUntil(0.75)", name, got)
		}
	}
}

// TestSingleRunUntilRunsBarrierHooks asserts RunUntil is Engine.RunUntil
// followed by the OnBarrier hooks: the hooks see every event up to the
// target fired and the clock at the target.
func TestSingleRunUntilRunsBarrierHooks(t *testing.T) {
	for name, s := range oneShard() {
		e := s.Engine(0)
		fired, hooks := 0, 0
		for _, at := range []Time{0.1, 0.9, 1.5} {
			e.At(at, func() { fired++ })
		}
		s.OnBarrier(func() {
			hooks++
			if fired != 2 || s.Now() != 1 {
				t.Errorf("%s: hook saw %d events at t=%v, want 2 at t=1", name, fired, s.Now())
			}
		})
		if err := s.RunUntil(1); err != nil {
			t.Fatal(err)
		}
		if hooks != 1 {
			t.Errorf("%s: %d hook runs, want 1", name, hooks)
		}
	}
}

// TestSingleSetMetricsRegistersEngineSeriesOnly asserts a one-shard
// scheduler exports exactly the engine's two series — no per-shard
// windows or barrier waits it never has — and that they count as the
// engine would.
func TestSingleSetMetricsRegistersEngineSeriesOnly(t *testing.T) {
	for name, s := range oneShard() {
		reg := metrics.NewRegistry()
		s.SetMetrics(reg)
		e := s.Engine(0)
		e.At(0.1, func() {})
		e.At(0.2, func() {})
		s.GlobalAt(0.3, func() {})
		if err := s.RunUntil(1); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, sr := range reg.Gather().Series {
			if strings.HasPrefix(sr.Name, "sim_shard_") {
				t.Errorf("%s: one shard registered %s", name, sr.Name)
			}
			got[sr.Name] = sr.Value
		}
		if len(got) != 2 || got["sim_events_total"] != 3 || got["sim_event_heap_depth_max"] != 3 {
			t.Errorf("%s: series %v, want sim_events_total=3 and sim_event_heap_depth_max=3 only", name, got)
		}
	}
}
