package machine

import (
	"fmt"
	"math"

	"cloudlb/internal/sim"
)

// workEpsilon is the relative slack used to decide that a job's remaining
// CPU demand has been fully served, absorbing float rounding from repeated
// proportional-share settlements.
const workEpsilon = 1e-9

// Core is a single CPU core scheduled with generalized processor sharing.
type Core struct {
	ID   int
	node *Node
	m    *Machine
	// eng is the engine this core's events live on: its node's shard
	// engine. All scheduling and time reads in the core go through it, so a
	// shard can run its cores without touching any other shard's clock.
	eng   *sim.Engine
	shard int
	speed float64

	active []*Thread // runnable threads currently sharing the core
	online bool

	lastSettle sim.Time
	busy       sim.Time // cumulative time with >=1 runnable thread
	idle       sim.Time // cumulative time with no runnable thread
	nextDone   sim.EventID
	hasNext    bool

	// onCompletionFn is the onCompletion method value bound once at
	// construction; arm() runs on every settle/add/remove and binding the
	// method there would allocate a closure each time.
	onCompletionFn func()
	// doneScratch is onCompletion's completed-thread list, reused across
	// firings so steady-state scheduling allocates nothing.
	doneScratch []*Thread

	// logPoints, when enabled, records (time, cumulative busy, runnable)
	// after every settlement so BusyAt can reconstruct the exact busy
	// counter at an instant the shard has already run past. Off by default
	// and always off with one shard, whose readings are never late: the
	// hot path then pays only the branch.
	logPoints bool
	busyLog   []busyPoint
}

// busyPoint is one entry of a core's busy log: the busy counter as settled
// at time at, and whether the core was runnable over the span that follows.
type busyPoint struct {
	at       sim.Time
	busy     sim.Time
	runnable bool
}

// Node returns the node hosting this core.
func (c *Core) Node() *Node { return c.node }

// Speed returns the core's service rate in CPU-seconds per wall second.
func (c *Core) Speed() float64 { return c.speed }

// SetSpeed changes the core's service rate, e.g. to model heterogeneous or
// throttled cores. The change takes effect from the current instant.
func (c *Core) SetSpeed(s float64) {
	if s <= 0 {
		panic("machine: core speed must be positive")
	}
	c.settle()
	c.speed = s
	c.arm()
}

// NumRunnable reports how many threads currently share the core.
func (c *Core) NumRunnable() int { return len(c.active) }

// Online reports whether the core is serving CPU. Cores start online; a
// cloud provider revoking the underlying instance takes them offline.
func (c *Core) Online() bool { return c.online }

// SetOffline removes the core from service, modelling the revocation of a
// preemptible cloud instance. The caller must have drained the core first
// — taking a core offline with runnable threads panics, because silently
// freezing in-flight bursts would deadlock the runtime on top of it. A
// sleeping thread may stay pinned here, but starting a burst on an offline
// core panics until SetOnline is called.
func (c *Core) SetOffline() {
	if !c.online {
		panic(fmt.Sprintf("machine: core %d is already offline", c.ID))
	}
	c.settle()
	if len(c.active) > 0 {
		panic(fmt.Sprintf("machine: core %d taken offline with %d runnable threads", c.ID, len(c.active)))
	}
	c.online = false
}

// SetOnline returns a previously revoked core to service (a replacement
// instance coming up). The time spent offline has accumulated as idle time,
// so /proc/stat deltas spanning the outage still sum to wall time.
func (c *Core) SetOnline() {
	if c.online {
		panic(fmt.Sprintf("machine: core %d is already online", c.ID))
	}
	c.settle()
	c.online = true
}

// ProcStat returns cumulative busy and idle wall time for the core, as an
// operating system would expose through /proc/stat. Callers diff successive
// readings to measure intervals, as the paper does for Eq. 2.
func (c *Core) ProcStat() (busy, idle sim.Time) {
	c.settle()
	return c.busy, c.idle
}

// Utilization returns the busy fraction of the core over [since, now]. It
// is a convenience for power metering; since must not be in the future.
func (c *Core) Utilization(busySince, since sim.Time) (busyNow sim.Time, util float64) {
	c.settle()
	now := c.eng.Now()
	if now <= since {
		return c.busy, 0
	}
	return c.busy, float64(c.busy-busySince) / float64(now-since)
}

// settle distributes CPU for the wall time elapsed since the last
// settlement among the runnable threads, updating all accounting.
func (c *Core) settle() {
	now := c.eng.Now()
	dt := now - c.lastSettle
	c.lastSettle = now
	if dt <= 0 {
		return
	}
	if len(c.active) == 0 {
		c.idle += dt
		c.logPoint()
		return
	}
	c.busy += dt
	total := c.totalWeight()
	for _, th := range c.active {
		got := float64(dt) * c.speed * th.effWeight / total
		th.remaining -= got
		th.cpu += sim.Time(got)
	}
	c.logPoint()
}

// logPoint appends the just-settled state to the busy log (replacing the
// last entry when settlement did not advance time). The runnable flag is
// re-recorded by add/remove/onCompletion after they mutate the active set,
// so the last entry at any instant describes the span that follows it.
func (c *Core) logPoint() {
	if !c.logPoints {
		return
	}
	p := busyPoint{at: c.lastSettle, busy: c.busy, runnable: len(c.active) > 0}
	if n := len(c.busyLog); n > 0 && c.busyLog[n-1].at == p.at {
		c.busyLog[n-1] = p
		return
	}
	c.busyLog = append(c.busyLog, p)
}

// BusyAt reconstructs the exact cumulative busy counter at time t: the
// value ProcStat would have returned had it been called at t, without
// settling the core. For t at or after the last settlement it answers from
// the core's current state, which is exactly what the last busy-log entry
// holds; earlier times need logging enabled and t no earlier than the
// barrier before the latest one (see Machine.trimBusyLogs). Either way the
// reconstruction reproduces settle's arithmetic — one addition onto the
// counter as of the preceding settlement — so the result is bit-identical
// to an in-place reading.
func (c *Core) BusyAt(t sim.Time) sim.Time {
	if t >= c.lastSettle {
		if len(c.active) > 0 && t > c.lastSettle {
			return c.busy + (t - c.lastSettle)
		}
		return c.busy
	}
	n := c.settledBy(t)
	if n == 0 {
		panic(fmt.Sprintf("machine: BusyAt(%v) precedes the busy log of core %d", t, c.ID))
	}
	p := c.busyLog[n-1]
	if p.runnable && t > p.at {
		return p.busy + (t - p.at)
	}
	return p.busy
}

// settledBy returns how many busy-log entries lie at or before t.
func (c *Core) settledBy(t sim.Time) int {
	log := c.busyLog
	lo, hi := 0, len(log)
	for lo < hi {
		mid := (lo + hi) / 2
		if log[mid].at <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (c *Core) totalWeight() float64 {
	t := 0.0
	for _, th := range c.active {
		t += th.effWeight
	}
	return t
}

// arm (re)schedules the next completion event from the current runnable
// set. It never invokes completion callbacks itself: a thread that is
// already done completes via an event at the current instant, so all
// callbacks observe a consistent, fully-armed core.
func (c *Core) arm() {
	if c.hasNext {
		c.eng.Cancel(c.nextDone)
		c.hasNext = false
	}
	if len(c.active) == 0 {
		return
	}
	total := c.totalWeight()
	soonest := math.MaxFloat64
	for _, th := range c.active {
		rate := c.speed * th.effWeight / total
		dt := th.remaining / rate
		if dt < 0 {
			dt = 0
		}
		if dt < soonest {
			soonest = dt
		}
	}
	c.nextDone = c.eng.After(sim.Time(soonest), c.onCompletionFn)
	c.hasNext = true
}

// onCompletion fires when the earliest in-flight burst has been served.
func (c *Core) onCompletion() {
	c.hasNext = false
	c.settle()
	// Collect every thread whose demand is exhausted (ties complete
	// together), remove them from the runnable set, re-arm, and only then
	// run callbacks: a callback may immediately start new bursts here or
	// on other cores, re-entering add/remove safely. The survivors are
	// compacted in place (order preserved) and the completed threads go
	// into a scratch list reused across firings.
	//
	// A thread is also done when its remainder is too small to advance
	// the clock at its current rate (arm's dt): arm would schedule its
	// completion at this same instant, where settle serves nothing,
	// forever. Late in a long run the clock's resolution outgrows the
	// workEpsilon slack: past t = 64 s a 2 µs burst can be left 5e-15 s
	// short, above its 3e-15 s slack but below half the clock's 1.4e-14 s
	// step.
	now := c.eng.Now()
	total := c.totalWeight()
	done := c.doneScratch[:0]
	keep := c.active[:0]
	for _, th := range c.active {
		if th.remaining <= th.demand*workEpsilon+1e-15 ||
			now+sim.Time(th.remaining/(c.speed*th.effWeight/total)) == now {
			done = append(done, th)
		} else {
			keep = append(keep, th)
		}
	}
	for i := len(keep); i < len(c.active); i++ {
		c.active[i] = nil
	}
	c.active = keep
	c.logPoint()
	c.arm()
	for _, th := range done {
		th.finishBurst()
	}
	for i := range done {
		done[i] = nil
	}
	c.doneScratch = done[:0]
}

func (c *Core) add(th *Thread) {
	if !c.online {
		panic(fmt.Sprintf("machine: thread %q started on offline core %d", th.name, c.ID))
	}
	c.settle()
	c.active = append(c.active, th)
	c.logPoint()
	c.arm()
}

func (c *Core) remove(th *Thread) {
	c.settle()
	for i, a := range c.active {
		if a == th {
			copy(c.active[i:], c.active[i+1:])
			c.active[len(c.active)-1] = nil // drop the stale tail reference
			c.active = c.active[:len(c.active)-1]
			c.logPoint()
			c.arm()
			return
		}
	}
	panic(fmt.Sprintf("machine: thread %q not on core %d", th.name, c.ID))
}

// Thread is a schedulable entity pinned to one core at a time. A thread
// alternates between bursts (Run) and sleeps; while sleeping it consumes no
// CPU and the core may be idle from the OS point of view.
type Thread struct {
	name   string
	core   *Core
	weight float64

	running   bool
	demand    float64 // CPU-seconds requested by the current burst
	remaining float64
	effWeight float64
	onDone    func()

	cpu sim.Time // cumulative CPU-seconds received
	gen uint64   // burst generation, guards stale zero-demand completions

	// Interactivity tracking: EMA of the fraction of recent wall time the
	// thread spent sleeping, updated once per sleep->run transition.
	sleepFrac  float64
	burstStart sim.Time
	sleepStart sim.Time
	everRan    bool
}

// NewThread creates a sleeping thread pinned to core with the given base
// weight. Weight must be positive.
func (m *Machine) NewThread(name string, core *Core, weight float64) *Thread {
	if weight <= 0 {
		panic("machine: thread weight must be positive")
	}
	return &Thread{
		name:       name,
		core:       core,
		weight:     weight,
		sleepStart: core.eng.Now(),
	}
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Core returns the core the thread is pinned to.
func (t *Thread) Core() *Core { return t.core }

// Running reports whether the thread has an in-flight burst.
func (t *Thread) Running() bool { return t.running }

// CPUTime returns the total CPU-seconds the thread has consumed. It settles
// the core first so the reading is current.
func (t *Thread) CPUTime() sim.Time {
	if t.running {
		t.core.settle()
	}
	return t.cpu
}

// SleepFraction returns the thread's smoothed recent sleep fraction, the
// input to the scheduler's interactivity bonus.
func (t *Thread) SleepFraction() float64 { return t.sleepFrac }

// Run starts a CPU burst of demand CPU-seconds. onDone fires (as a
// simulation event) when the burst has been fully served. A zero demand
// completes at the current instant. Starting a burst while one is in flight
// panics: threads are strictly sequential.
func (t *Thread) Run(demand float64, onDone func()) {
	if t.running {
		panic(fmt.Sprintf("machine: thread %q already running", t.name))
	}
	if demand < 0 {
		panic("machine: negative CPU demand")
	}
	eng := t.core.eng
	now := eng.Now()
	// Update the sleep-fraction EMA with the completed run/sleep cycle.
	if t.everRan {
		runDur := float64(t.sleepStart - t.burstStart)
		sleepDur := float64(now - t.sleepStart)
		if runDur+sleepDur > 0 {
			frac := sleepDur / (runDur + sleepDur)
			a := t.core.m.cfg.InteractivityAlpha
			t.sleepFrac = a*frac + (1-a)*t.sleepFrac
		}
	}
	t.burstStart = now
	t.everRan = true
	t.running = true
	t.demand = demand
	t.remaining = demand
	t.onDone = onDone
	t.effWeight = t.weight * (1 + t.core.m.cfg.InteractivityBonus*t.sleepFrac)
	t.gen++
	if demand == 0 {
		// Complete via an event so callers observe uniform asynchrony. The
		// generation guard discards the event if the burst was aborted (and
		// possibly replaced) before it fires.
		gen := t.gen
		eng.After(0, func() {
			if t.gen == gen && t.running {
				t.finishBurst()
			}
		})
		return
	}
	t.core.add(t)
}

func (t *Thread) finishBurst() {
	t.running = false
	t.remaining = 0
	t.sleepStart = t.core.eng.Now()
	if t.onDone != nil {
		cb := t.onDone
		t.onDone = nil
		cb()
	}
}

// Migrate re-pins a sleeping thread to another core. Migrating a running
// thread panics; the runtime always drains a worker before moving it.
func (t *Thread) Migrate(dst *Core) {
	if t.running {
		panic(fmt.Sprintf("machine: cannot migrate running thread %q", t.name))
	}
	t.core = dst
}

// FinishNow forces an in-flight burst to complete at the current instant,
// firing its completion callback synchronously. It models the final slice a
// preempted instance gets before revocation: the burst's remaining demand is
// forfeited (not charged as CPU time) but the burst counts as served, so the
// thread's owner observes a normal completion and the thread is immediately
// migratable. FinishNow on an idle thread is a no-op.
func (t *Thread) FinishNow() {
	if !t.running {
		return
	}
	t.gen++ // discard a pending zero-demand completion event
	if t.demand > 0 {
		t.core.remove(t)
	}
	t.finishBurst()
}

// Abort cancels an in-flight burst without firing its completion callback,
// returning the CPU-seconds that had not yet been served. Aborting an idle
// thread returns 0.
func (t *Thread) Abort() float64 {
	if !t.running {
		return 0
	}
	t.gen++
	if t.demand > 0 {
		t.core.remove(t)
	}
	rem := t.remaining
	if rem < 0 {
		rem = 0
	}
	t.running = false
	t.onDone = nil
	t.remaining = 0
	t.sleepStart = t.core.eng.Now()
	return rem
}
