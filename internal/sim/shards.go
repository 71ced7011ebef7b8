package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
)

// Shards runs one Engine per shard and synchronizes them in conservative
// time windows, in the classic CMB/LBTS style of parallel discrete-event
// simulation. Every simulation runs on a Shards; one shard is simply its
// engine (see Single): global events are plain engine events, Now is the
// engine clock and RunUntil is Engine.RunUntil followed by the barrier
// hooks, so a one-shard run fires exactly the events, in exactly the
// order, of a bare Engine.
//
// The contract with the model layers is:
//
//   - Every event scheduled on a shard's engine concerns only state owned
//     by that shard (a group of machine nodes and everything pinned to
//     their cores).
//   - The only cross-shard influence is an explicit Cross(src, dst, at, fn)
//     call, and its timestamp always lies at least Lookahead beyond the
//     sending shard's current time (xnet charges every inter-node message
//     a fixed latency, which is exactly this lookahead).
//
// Under that contract every shard may freely execute all events up to
// edge = min(nextEvent) + Lookahead: no message produced inside the window
// can land inside it. Cross-shard sends buffer in per-(src,dst) mailboxes
// while a window runs and are drained into the destination heaps at the
// barrier, sorted by (timestamp, send time, source shard, send order) so
// the destination sequence numbers — and therefore the simulation — never
// depend on goroutine scheduling. Each delivery keeps its sender's clock
// and shard as its scheduling time and origin, so against a local event
// at the same timestamp it fires after the events scheduled before it was
// sent and before those scheduled later. A local event scheduled at the
// same instant as the send goes by shard: a lower shard's delivery fires
// first, as in merged mode, which is one engine's order when the two
// senders' histories tie back to the runtime's start, where nodes are
// built in shard order. Two senders at the same instant whose histories
// differ earlier can still fire in another order than on one engine.
//
// Two coordinator-side execution modes complement the parallel windows:
//
//   - Global events (GlobalAt) run on the coordinator with every shard
//     parked at exactly the event's timestamp. The scenario layer uses them
//     for actors that touch cores on many shards at once: power-meter
//     samples, cloud churn arrivals, background-job starts.
//   - Merged-sequential mode (RequireSequential/ForceSequential) makes the
//     coordinator pop events one at a time in the engines' own (timestamp,
//     send time, sequence) order with all shard clocks advanced in lock
//     step. The charm runtime raises sequential demand while an LB step
//     gathers, plans and migrates, because its master-side handlers read
//     state on every shard; it drops the demand when the step's placements
//     are final, and the coordinator returns to parallel windows from that
//     exact point, resume wave included. Elasticity pins a whole run
//     merged (ForceSequential).
type Shards struct {
	engines   []*Engine
	lookahead Time
	now       Time // common clock at barriers / merged-mode frontier
	limit     uint64

	mail          [][]mailbox // [src][dst], written by src during windows
	injectScratch []crossEntry

	globals    globalHeap
	gseq       uint64
	globalExec uint64
	// merged counts the events the coordinator ran merged-sequentially.
	merged uint64

	// seqDemand counts outstanding reasons to run merged-sequentially. It
	// is incremented from shard workers (a PE entering AtSync mid-window)
	// and read by the coordinator at barriers, hence atomic.
	seqDemand atomic.Int64
	forced    bool

	// parallel is true only while shard workers are executing a window. It
	// is written by the coordinator outside windows and read by model code
	// inside them (ordered by the dispatch/join channels), so Cross can
	// tell mailbox context from coordinator context without atomics.
	parallel bool

	// seqPoll is the Sequential method value, bound once so the per-event
	// stop poll of a window (Engine.runUntil) never allocates.
	seqPoll func() bool

	hooks []func()

	started  bool
	closed   bool
	cmd      []chan Time
	done     chan workerDone
	inWindow []bool

	err error

	// Telemetry (nil-safe handles; see SetMetrics).
	metEvents    *metrics.Counter
	metHeapDepth *metrics.Gauge
	// windows counts the conservative windows each shard actively
	// executed (see ShardWindows).
	windows []uint64

	// Job tracing (nil-safe; see SetObs). finishedAt holds each shard's
	// host finish time in the current window, for the stall spans.
	obs        *obs.Trace
	obsTID     int
	finishedAt []time.Time
}

type crossEntry struct {
	at, from Time
	src      int
	fn       func()
}

// mailbox buffers one ordered (src,dst) stream. The pad keeps mailboxes of
// different source shards off each other's cache lines: each row of mail is
// written by exactly one worker during a window.
type mailbox struct {
	entries []crossEntry
	_       [40]byte
}

type workerDone struct {
	shard int
	err   error
	at    time.Time
}

type globalEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// globalHeap is a small binary min-heap of coordinator events ordered by
// (at, seq). Global events are rare (one per meter sample or churn step),
// so it favors simplicity over the engine heap's tuning.
type globalHeap []globalEvent

func (h globalHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *globalHeap) push(ev globalEvent) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *globalHeap) pop() globalEvent {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = globalEvent{}
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return min
}

func (h globalHeap) min() (Time, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// NewShards creates n engines synchronized with the given lookahead: the
// minimum virtual-time distance every Cross timestamp keeps ahead of its
// sender. Lookahead must be positive — a zero-lookahead model cannot make
// conservative progress.
func NewShards(n int, lookahead Time) *Shards {
	if n < 1 || n > 1<<(64-seqShardShift) {
		panic(fmt.Sprintf("sim: shard count %d outside [1, %d]", n, 1<<(64-seqShardShift)))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: lookahead %v must be positive", lookahead))
	}
	s := &Shards{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		mail:      make([][]mailbox, n),
		inWindow:  make([]bool, n),
		windows:   make([]uint64, n),
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
		s.engines[i].shard = uint64(i) << seqShardShift
		s.mail[i] = make([]mailbox, n)
	}
	s.seqPoll = s.Sequential
	return s
}

// Single returns the one-shard scheduler over an existing engine, for
// callers that build a model on eng and then drive eng directly. One shard
// never runs a window, so it needs no lookahead, mailboxes or workers.
func Single(eng *Engine) *Shards { return &Shards{engines: []*Engine{eng}} }

// NumShards reports the number of shards.
func (s *Shards) NumShards() int { return len(s.engines) }

// Engine returns shard i's engine.
func (s *Shards) Engine(i int) *Engine { return s.engines[i] }

// Lookahead reports the conservative window bound.
func (s *Shards) Lookahead() Time { return s.lookahead }

// Now reports the coordinator clock: the common shard time at barriers and
// the merged-mode frontier while sequential. Coordinator context only. With
// one shard it is the engine clock, valid anywhere.
func (s *Shards) Now() Time {
	if len(s.engines) == 1 {
		return s.engines[0].Now()
	}
	return s.now
}

// Executed reports the total number of fired events across all shards,
// including coordinator global events.
func (s *Shards) Executed() uint64 {
	total := s.globalExec
	for _, e := range s.engines {
		total += e.Executed()
	}
	return total
}

// SetEventLimit bounds the total fired events as Engine.SetEventLimit does.
func (s *Shards) SetEventLimit(n uint64) {
	s.limit = n
	for _, e := range s.engines {
		e.SetEventLimit(n)
	}
}

// SetMetrics registers the engine-level series on reg: events fired and
// the pending-event heap's high-water mark. Nothing per shard goes into
// the registry, so a run registers the same series at every shard count;
// per-shard counts are read with ShardEvents and ShardWindows. Passing
// nil is a no-op.
func (s *Shards) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.metEvents = reg.Counter("sim_events_total", "Events dispatched by the simulation engine.")
	s.metHeapDepth = reg.Gauge("sim_event_heap_depth_max", "High-water mark of the pending-event heap.")
	for _, e := range s.engines {
		e.SetMetrics(s.metEvents, s.metHeapDepth)
	}
}

// ShardEvents reports the events each shard's engine has fired, in shard
// order (coordinator global events are not on any shard).
func (s *Shards) ShardEvents() []uint64 {
	out := make([]uint64, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Executed()
	}
	return out
}

// ShardWindows reports how many conservative windows each shard actively
// executed, in shard order. One shard never runs a window.
func (s *Shards) ShardWindows() []uint64 { return slices.Clone(s.windows) }

// MergedEvents reports how many engine events the coordinator ran
// merged-sequentially, one at a time with every other shard parked. With
// one shard it is 0: a plain engine has no merged mode.
func (s *Shards) MergedEvents() uint64 { return s.merged }

// SetObs attaches a job trace: each parallel window records a barrier-stall
// span per shard that finished early enough to matter (>= 1ms of host time
// spent waiting on the slowest shard), on the scenario's trace row. A nil
// trace is a no-op, so the call can be wired unconditionally.
func (s *Shards) SetObs(tr *obs.Trace, tid int) {
	if tr == nil {
		return
	}
	s.obs = tr
	s.obsTID = tid
	s.finishedAt = make([]time.Time, len(s.engines))
}

// OnBarrier registers fn to run on the coordinator at every window barrier
// (and between merged-mode phases), with all shard clocks equal; with one
// shard, once at the end of every RunUntil. The charm runtime uses it to
// consolidate per-shard completion marks.
func (s *Shards) OnBarrier(fn func()) { s.hooks = append(s.hooks, fn) }

// RequireSequential adds one unit of sequential demand: from the next
// barrier on, the coordinator executes events one at a time in one
// engine's order (see runMerged) until ReleaseSequential drops the demand
// to zero. Safe to call from shard workers mid-window.
func (s *Shards) RequireSequential() { s.seqDemand.Add(1) }

// ReleaseSequential removes one unit of sequential demand.
func (s *Shards) ReleaseSequential() {
	if s.seqDemand.Add(-1) < 0 {
		panic("sim: ReleaseSequential without matching RequireSequential")
	}
}

// ForceSequential pins the whole run to merged-sequential execution. The
// scenario layer uses it for elasticity scenarios, whose revoke/evacuate
// handlers reach across every shard.
func (s *Shards) ForceSequential() { s.forced = true }

// Sequential reports whether the coordinator is currently obliged to run
// merged-sequentially.
func (s *Shards) Sequential() bool { return s.forced || s.seqDemand.Load() > 0 }

// Cross schedules fn at time at on shard dst on behalf of shard src.
// Inside a parallel window it buffers into the (src,dst) mailbox; in
// coordinator context (merged mode, global events, construction) it
// schedules directly, which preserves the same canonical order because
// those contexts are single-threaded.
//
// The conservative contract requires at >= src's now + lookahead; a
// violation means some network path charges less latency than the
// lookahead assumes, so the windows are no longer conservative. That is
// always a construction-time bug (xnet.New validates the matching
// invariant), so it panics rather than silently corrupting determinism.
func (s *Shards) Cross(src, dst int, at Time, fn func()) {
	from := s.engines[src].Now()
	if at < from+s.lookahead {
		panic(fmt.Sprintf(
			"sim: cross-shard event at %v violates conservative lookahead (shard %d now %v + lookahead %v)",
			at, src, from, s.lookahead))
	}
	if !s.parallel {
		s.engines[dst].atFrom(at, from, uint64(src)<<seqShardShift, fn)
		return
	}
	mb := &s.mail[src][dst]
	mb.entries = append(mb.entries, crossEntry{at: at, from: from, src: src, fn: fn})
}

// GlobalAt schedules fn as a coordinator global event at time t: every
// shard will be parked at exactly t when it runs. Coordinator context only
// (construction, global handlers, merged-mode events). With one shard it is
// a plain engine event, ordered among the others by scheduling order.
func (s *Shards) GlobalAt(t Time, fn func()) {
	if len(s.engines) == 1 {
		s.engines[0].At(t, fn)
		return
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling global event at %v before now %v", t, s.now))
	}
	s.globals.push(globalEvent{at: t, seq: s.gseq, fn: fn})
	s.gseq++
}

// GlobalAfter schedules fn as a global event d seconds from now.
func (s *Shards) GlobalAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.GlobalAt(s.Now()+d, fn)
}

// RunUntil advances all shards to target, alternating conservative
// parallel windows, merged-sequential phases and global events as the
// model demands. On return every shard clock equals target. One shard runs
// Engine.RunUntil and then the barrier hooks.
func (s *Shards) RunUntil(target Time) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return fmt.Errorf("sim: RunUntil after Close")
	}
	if len(s.engines) == 1 {
		if err := s.engines[0].RunUntil(target); err != nil {
			s.err = err
			return err
		}
		s.runHooks()
		return nil
	}
	for {
		s.drainMail()
		s.runHooks()
		if g, ok := s.globals.min(); ok && g <= s.now {
			s.runGlobalsAt(s.now)
			continue
		}
		if s.now >= target {
			return nil
		}
		if s.Sequential() {
			bound := target
			if g, ok := s.globals.min(); ok && g < bound {
				bound = g
			}
			if err := s.runMerged(bound); err != nil {
				s.err = err
				return err
			}
			continue
		}
		mn := Never
		for _, e := range s.engines {
			if t, ok := e.NextEventAt(); ok && t < mn {
				mn = t
			}
		}
		edge := target
		if g, ok := s.globals.min(); ok && g < edge {
			edge = g
		}
		if mn < Never {
			if w := mn + s.lookahead; w < edge {
				edge = w
			}
		}
		if err := s.window(edge); err != nil {
			s.err = err
			return err
		}
		// A shard that saw sequential demand mid-window stops before the
		// edge with events still pending below it; the coordinator clock
		// follows the slowest shard so those events run (merged) before any
		// global event or hook that a full advance would have unblocked.
		s.now = edge
		for _, e := range s.engines {
			if n := e.Now(); n < s.now {
				s.now = n
			}
		}
	}
}

// drainMail moves buffered cross-shard sends into the destination heaps in
// canonical (timestamp, send time, source shard, send order) order.
// Coordinator only, with no window in flight.
func (s *Shards) drainMail() {
	for dst := range s.engines {
		buf := s.injectScratch[:0]
		for src := range s.engines {
			mb := &s.mail[src][dst].entries
			buf = append(buf, (*mb)...)
			clear(*mb)
			*mb = (*mb)[:0]
		}
		if len(buf) == 0 {
			continue
		}
		slices.SortStableFunc(buf, crossOrder)
		for i := range buf {
			s.engines[dst].atFrom(buf[i].at, buf[i].from, uint64(buf[i].src)<<seqShardShift, buf[i].fn)
		}
		clear(buf)
		s.injectScratch = buf[:0]
	}
}

// crossOrder orders drained mail by (timestamp, send time, source shard);
// the stable sort keeps each source's send order. A plain function, not a
// closure, so sorting a window's mail allocates nothing.
func crossOrder(a, b crossEntry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.src, b.src)
}

func (s *Shards) runHooks() {
	for _, fn := range s.hooks {
		fn()
	}
}

// runGlobalsAt fires every global event with timestamp <= t (they are
// never earlier than t by construction).
func (s *Shards) runGlobalsAt(t Time) {
	for {
		g, ok := s.globals.min()
		if !ok || g > t {
			return
		}
		ev := s.globals.pop()
		s.globalExec++
		s.metEvents.Inc()
		ev.fn()
	}
}

// runMerged executes events one at a time until bound, advancing every
// shard clock in lock step so cross-shard handler code always reads
// consistent times. Each step fires the engine root with the smallest
// (timestamp, send time, sequence) key, the key every engine heap orders
// by, so events tied on their timestamp fire in one engine's order: by send
// time, then by scheduling shard (seq's top bits). It returns early
// (without reaching bound) as soon as sequential demand drops to zero.
//
// A shard that stopped its window early (see window) enters merged mode
// with its clock behind shards that ran to the window edge; the AdvanceTo
// calls are therefore guarded. An ahead shard has no events below the
// frontier — it already executed everything up to its own clock — so the
// event owning each step always runs on an engine whose clock equals the
// frontier.
func (s *Shards) runMerged(bound Time) error {
	for {
		best := -1
		var next *event
		for i, e := range s.engines {
			if ev := e.peek(); ev != nil && (next == nil || eventLess(ev, next)) {
				best, next = i, ev
			}
		}
		if next == nil || next.at > bound {
			break
		}
		bt := next.at
		if s.limit > 0 && s.Executed() >= s.limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", s.limit, s.now)
		}
		for _, e := range s.engines {
			if bt > e.Now() {
				e.AdvanceTo(bt)
			}
		}
		s.now = bt
		s.engines[best].Step()
		s.merged++
		if !s.Sequential() {
			return nil
		}
	}
	for _, e := range s.engines {
		if bound > e.Now() {
			e.AdvanceTo(bound)
		}
	}
	s.now = bound
	return nil
}

// window advances every shard to edge: shards with due events run
// concurrently on their worker goroutines (or inline when only one shard
// has work), the rest just move their clocks.
//
// Each busy shard runs its engine loop with sequential demand as the stop
// poll: it stops as soon as any demand appears, leaving its clock at the
// last fired event. The poll is what keeps shared-runtime state off
// parallel windows. When a handler raises demand (a PE entering AtSync),
// every follow-up handler that reads cross-shard state is either on another
// shard — then it is a cross-shard message, at least Lookahead away,
// landing after the barrier — or on this same shard, where the poll defers
// it to merged mode. Other shards may observe the demand at a racy point,
// but their remaining window events touch only shard-local state, so which
// of them run before the barrier never affects the simulation.
func (s *Shards) window(edge Time) error {
	active := 0
	lone := -1
	for i, e := range s.engines {
		if t, ok := e.NextEventAt(); ok && t <= edge {
			s.inWindow[i] = true
			active++
			lone = i
		} else {
			s.inWindow[i] = false
			e.AdvanceTo(edge)
		}
	}
	if active == 0 {
		return nil
	}
	for i, busy := range s.inWindow {
		if busy {
			s.windows[i]++
		}
	}
	if active == 1 {
		// Single busy shard: no concurrency to exploit; Cross falls back to
		// direct scheduling, which is the same canonical order.
		return s.engines[lone].runUntil(edge, s.seqPoll)
	}
	s.startWorkers()
	s.parallel = true
	for i := range s.engines {
		if s.inWindow[i] {
			s.cmd[i] <- edge
		}
	}
	var err error
	errShard := len(s.engines)
	var lastDone time.Time
	for n := 0; n < active; n++ {
		d := <-s.done
		if d.err != nil && d.shard < errShard {
			err, errShard = d.err, d.shard
		}
		if s.obs != nil {
			s.finishedAt[d.shard] = d.at
			if d.at.After(lastDone) {
				lastDone = d.at
			}
		}
	}
	s.parallel = false
	if s.obs != nil {
		for i := range s.engines {
			if !s.inWindow[i] {
				continue
			}
			stall := lastDone.Sub(s.finishedAt[i])
			// Only material stalls become spans: every window stalls all but
			// the slowest shard by a few microseconds, and recording those
			// would exhaust the span budget without telling the reader
			// anything. 1ms of host time is already an outlier barrier.
			if stall >= time.Millisecond {
				s.obs.AddNow(obs.CatBarrier, "window-stall", s.obsTID, stall,
					"shard", i, "virtual_t", float64(edge))
			}
		}
	}
	return err
}

func (s *Shards) startWorkers() {
	if s.started {
		return
	}
	s.started = true
	s.cmd = make([]chan Time, len(s.engines))
	s.done = make(chan workerDone, len(s.engines))
	for i := range s.engines {
		s.cmd[i] = make(chan Time, 1)
		go s.worker(i)
	}
}

func (s *Shards) worker(i int) {
	e := s.engines[i]
	for edge := range s.cmd[i] {
		err := e.runUntil(edge, s.seqPoll)
		var at time.Time
		if s.obs != nil {
			at = time.Now()
		}
		s.done <- workerDone{shard: i, err: err, at: at}
	}
}

// Close stops the worker goroutines. The Shards cannot run afterwards.
func (s *Shards) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.started {
		for _, c := range s.cmd {
			close(c)
		}
	}
}
