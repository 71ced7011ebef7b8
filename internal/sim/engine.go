// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the cluster, network, runtime and application models in this
// repository are driven by a Shards scheduler over one or more Engines; a
// one-shard scheduler is exactly its single Engine. Virtual time only
// advances when an engine dequeues the next scheduled event. Events
// scheduled for the same instant fire in scheduling order (a monotone
// sequence number breaks ties), so a simulation is exactly reproducible
// for identical inputs.
package sim

import (
	"fmt"
	"math"

	"cloudlb/internal/metrics"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. Using float64 seconds keeps arithmetic on rates (CPU shares,
// bandwidths) simple; determinism comes from performing the same float
// operations in the same order on every run.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Never is a sentinel Time that compares after every reachable instant.
const Never Time = math.MaxFloat64

type event struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

// EventID identifies a scheduled event so it can be cancelled. Event
// structs are recycled through the engine's free list once they fire, so
// the ID also carries the sequence number it was issued for: a stale ID
// whose struct has been reused for a later event no longer matches and
// Cancel becomes a no-op, exactly as cancelling an already-fired event
// always was.
type EventID struct {
	ev  *event
	seq uint64
}

// Engine is a discrete-event simulation kernel. The zero value is not ready
// to use; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pending eventHeap
	// free recycles fired and cancelled event structs: scheduling in the
	// steady state then allocates nothing, which matters because every
	// modelled computation, message hop and timer is an event.
	free []*event
	// executed counts events that have fired, for diagnostics and tests.
	executed uint64
	// limit aborts runaway simulations; 0 means no limit.
	limit uint64
	// Optional telemetry handles (see SetMetrics). Nil handles are no-ops,
	// so Step updates them unconditionally.
	metEvents    *metrics.Counter
	metHeapDepth *metrics.Gauge
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// SetEventLimit makes Run fail after n events have fired (0 disables the
// limit). It is a guard against accidentally divergent models.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// SetMetrics attaches telemetry handles: events counts every fired event,
// heapDepth tracks the high-water mark of the pending-event heap. Either
// may be nil (no-op); metrics never perturb virtual time.
func (e *Engine) SetMetrics(events *metrics.Counter, heapDepth *metrics.Gauge) {
	e.metEvents = events
	e.metHeapDepth = heapDepth
}

// Pending reports the number of scheduled (not yet fired or cancelled)
// events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.pending.ev {
		if !ev.dead {
			n++
		}
	}
	return n
}

func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it is always a model bug, and silently clamping would hide it.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.dead = false
	e.seq++
	e.pending.push(ev)
	return EventID{ev: ev, seq: ev.seq}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op.
func (e *Engine) Cancel(id EventID) {
	if id.ev != nil && id.ev.seq == id.seq {
		id.ev.dead = true
	}
}

// Step fires the single next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	e.metHeapDepth.SetMax(float64(e.pending.len()))
	for e.pending.len() > 0 {
		ev := e.pending.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		fn := ev.fn
		e.now = ev.at
		e.executed++
		e.metEvents.Inc()
		// Recycle before firing: fn is captured locally, and any event the
		// callback schedules may immediately reuse the struct (its stale
		// EventIDs are fenced off by the sequence check in Cancel).
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// Run fires events until none remain. It returns an error if firing the
// next event would exceed the configured event limit: with SetEventLimit(n)
// exactly n events may fire, and the error is raised in place of the
// (n+1)th.
func (e *Engine) Run() error {
	for {
		if e.limit > 0 && e.executed >= e.limit && e.peek() != nil {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
		if !e.Step() {
			return nil
		}
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline. Events scheduled beyond the deadline stay pending. The
// event limit is enforced as in Run: the (limit+1)th event never fires.
//
// The loop inspects the heap root exactly once per event: the earlier
// peek-then-Step structure walked dead events out of the root in peek and
// then re-ran the same dead-check loop inside Step, costing a second pass
// over the root for every fired event.
func (e *Engine) RunUntil(deadline Time) error { return e.runUntil(deadline, nil) }

// runUntil is the event loop behind RunUntil with an optional stop poll.
// A non-nil stop is consulted before every due event; when it reports
// true the loop returns at once, leaving the clock at the last fired event
// rather than the deadline. Shard workers poll the coordinator's
// sequential demand this way (see Shards.window); the plain path passes
// nil and pays one branch.
func (e *Engine) runUntil(deadline Time, stop func() bool) error {
	for e.pending.len() > 0 {
		ev := e.pending.ev[0]
		if ev.dead {
			e.pending.pop()
			e.recycle(ev)
			continue
		}
		if ev.at > deadline {
			break
		}
		if stop != nil && stop() {
			return nil
		}
		if e.limit > 0 && e.executed >= e.limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
		e.metHeapDepth.SetMax(float64(e.pending.len()))
		e.pending.pop()
		fn := ev.fn
		e.now = ev.at
		e.executed++
		e.metEvents.Inc()
		e.recycle(ev)
		fn()
	}
	if deadline > e.now {
		e.now = deadline
	}
	return nil
}

// NextEventAt reports the timestamp of the next live pending event, popping
// and recycling any cancelled events it encounters at the root. The shard
// coordinator uses it between windows to compute the next safe window edge.
func (e *Engine) NextEventAt() (Time, bool) {
	for e.pending.len() > 0 {
		ev := e.pending.ev[0]
		if ev.dead {
			e.pending.pop()
			e.recycle(ev)
			continue
		}
		return ev.at, true
	}
	return 0, false
}

// AdvanceTo moves the clock forward to t without firing anything. It panics
// if a live event would be skipped or if t is in the past: the shard
// coordinator only advances an engine across spans it has proven empty.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: advancing to %v before now %v", t, e.now))
	}
	if next, ok := e.NextEventAt(); ok && next < t {
		panic(fmt.Sprintf("sim: advancing to %v past pending event at %v", t, next))
	}
	e.now = t
}

func (e *Engine) peek() *event {
	for e.pending.len() > 0 {
		if ev := e.pending.ev[0]; ev.dead {
			e.pending.pop()
			e.recycle(ev)
			continue
		}
		return e.pending.ev[0]
	}
	return nil
}
