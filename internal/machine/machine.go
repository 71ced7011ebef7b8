// Package machine models a small cluster of multi-core nodes driven by a
// discrete-event simulation engine.
//
// Each core is a generalized processor-sharing (GPS) server: all runnable
// threads on a core receive CPU simultaneously, in proportion to their
// weights. This mirrors how a multi-tenant cloud host divides a physical
// core between a pinned HPC worker and an interfering co-located VM, which
// is the environment the paper studies. A thread's weight is fixed when it
// is created; the OS preference the paper reports for Mol3D's background
// job is such a static weight, set by the experiment that builds the job.
//
// Cores keep /proc/stat-style cumulative busy and idle counters (see
// ProcStat). Load balancers in this repository observe background load only
// through those counters, exactly as the paper derives O_p from /proc/stat.
package machine

import (
	"fmt"
	"strconv"

	"cloudlb/internal/metrics"
	"cloudlb/internal/sim"
)

// Config describes a homogeneous cluster.
type Config struct {
	// Nodes is the number of nodes; CoresPerNode cores each.
	Nodes        int
	CoresPerNode int
	// CoreSpeed is how many CPU-seconds of work a core completes per wall
	// second when a thread runs alone. 1.0 models the paper's testbed;
	// heterogeneous speeds can be set per core after construction.
	CoreSpeed float64
	// Metrics, when non-nil, receives per-core busy/idle gauges
	// (machine_core_busy_seconds / machine_core_idle_seconds). The values
	// are published by PublishMetrics — called from the goroutine driving
	// the simulation at whatever cadence it chooses — reading the same
	// /proc/stat counters the balancers use for Eq. 2's O_p, so the GPS
	// scheduler's hot path pays nothing for them and a live /metrics
	// scrape never touches scheduler state.
	Metrics *metrics.Registry
}

// Machine is a simulated cluster.
type Machine struct {
	eng   *sim.Engine
	cfg   Config
	nodes []*Node
	cores []*Core // flattened, global core IDs

	// shards is the scheduler driving the cluster: each node's cores
	// schedule on their shard's engine, and cross-cutting actors (power
	// meter, churn) use its GlobalAt. One shard is a plain engine.
	shards *sim.Shards

	// metricsBusy/metricsIdle are the per-core gauges PublishMetrics
	// feeds; nil without Config.Metrics.
	metricsBusy []*metrics.Gauge
	metricsIdle []*metrics.Gauge

	// lastBarrier is the clock of the latest window barrier, which the
	// next trimBusyLogs keeps the busy logs back to.
	lastBarrier sim.Time
}

// Node groups the cores that share a physical box (and a power supply).
type Node struct {
	ID    int
	cores []*Core
}

// Cores returns the node's cores in local order.
func (n *Node) Cores() []*Core { return n.cores }

// New builds a cluster driven by eng alone — the one-shard scheduler over
// it (sim.Single) — so the caller may drive eng directly.
func New(eng *sim.Engine, cfg Config) *Machine { return NewSharded(sim.Single(eng), cfg) }

// NewSharded builds a cluster driven by the scheduler sh. Nodes are
// assigned to shards in contiguous blocks (node n of N on shard n*S/N),
// and every core schedules exclusively on its node's shard engine. The
// shard count must not exceed the node count: a node's cores share NIC
// and scheduler state and can never be split. It panics on nonsensical
// configurations, because a bad machine shape is always a programming
// error in this codebase.
func NewSharded(sh *sim.Shards, cfg Config) *Machine {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic(fmt.Sprintf("machine: invalid shape %d nodes x %d cores", cfg.Nodes, cfg.CoresPerNode))
	}
	if cfg.CoreSpeed <= 0 {
		panic("machine: core speed must be positive")
	}
	if sh.NumShards() > cfg.Nodes {
		panic(fmt.Sprintf("machine: %d shards for %d nodes", sh.NumShards(), cfg.Nodes))
	}
	m := &Machine{eng: sh.Engine(0), cfg: cfg, shards: sh}
	for n := 0; n < cfg.Nodes; n++ {
		node := &Node{ID: n}
		shard := n * sh.NumShards() / cfg.Nodes
		eng := sh.Engine(shard)
		for c := 0; c < cfg.CoresPerNode; c++ {
			core := &Core{
				ID:     n*cfg.CoresPerNode + c,
				node:   node,
				eng:    eng,
				shard:  shard,
				speed:  cfg.CoreSpeed,
				online: true,
			}
			core.onCompletionFn = core.onCompletion
			node.cores = append(node.cores, core)
			m.cores = append(m.cores, core)
		}
		m.nodes = append(m.nodes, node)
	}
	m.registerMetrics()
	if sh.NumShards() > 1 {
		sh.OnBarrier(m.trimBusyLogs)
	}
	return m
}

func (m *Machine) registerMetrics() {
	reg := m.cfg.Metrics
	if reg == nil {
		return
	}
	m.metricsBusy = make([]*metrics.Gauge, len(m.cores))
	m.metricsIdle = make([]*metrics.Gauge, len(m.cores))
	for i := range m.cores {
		core := metrics.L("core", strconv.Itoa(i))
		m.metricsBusy[i] = reg.Gauge("machine_core_busy_seconds",
			"Cumulative busy virtual seconds per core (/proc/stat busy).", core)
		m.metricsIdle[i] = reg.Gauge("machine_core_idle_seconds",
			"Cumulative idle virtual seconds per core (/proc/stat idle).", core)
	}
}

// PublishMetrics settles every core and stores the cumulative busy/idle
// counters into the machine_core_* gauges. It must run on the goroutine
// driving the simulation — settling mutates scheduler state — which is
// why it is an explicit call (the scenario loop invokes it once per
// virtual second and once at the end) rather than a Gather-time
// collector: a concurrent scrape then only reads the atomic gauges and
// never races the scheduler. No-op without Config.Metrics.
func (m *Machine) PublishMetrics() {
	if m.metricsBusy == nil {
		return
	}
	for i, c := range m.cores {
		b, id := c.ProcStat()
		m.metricsBusy[i].Set(float64(b))
		m.metricsIdle[i].Set(float64(id))
	}
}

// Engine returns shard 0's engine — the only engine with one shard (use
// EngineFor for per-core scheduling and Shards().GlobalAt for actors that
// touch cores on several shards).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Shards returns the scheduler driving the cluster. Cross-cutting actors
// that touch cores on several shards — the power meter, cloud churn,
// background-job starts — schedule through its GlobalAt and read its Now.
func (m *Machine) Shards() *sim.Shards { return m.shards }

// EngineFor returns the engine that owns the given core's events.
func (m *Machine) EngineFor(coreID int) *sim.Engine { return m.cores[coreID].eng }

// ShardOf reports which shard owns a core.
func (m *Machine) ShardOf(coreID int) int { return m.cores[coreID].shard }

// Config returns the construction-time configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumCores reports the total number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// NumOnline reports how many cores are currently in service.
func (m *Machine) NumOnline() int {
	n := 0
	for _, c := range m.cores {
		if c.online {
			n++
		}
	}
	return n
}

// NumNodes reports the number of nodes.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// Core returns the core with the given global ID.
func (m *Machine) Core(id int) *Core { return m.cores[id] }

// Node returns the node with the given ID.
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// NodeOf reports which node hosts a global core ID.
func (m *Machine) NodeOf(coreID int) int { return coreID / m.cfg.CoresPerNode }

// EnableBusyLog turns on busy logging for the given cores, seeding each
// log with the current settled state. The power meter enables it for the
// cores it meters, so it can take its final sample at an application
// finish time the shards have already run past. With one shard no reading
// is ever late — BusyAt answers the current instant from the core's state
// — so a one-shard machine keeps no log. Every barrier trims the logs to
// two windows (see trimBusyLogs).
func (m *Machine) EnableBusyLog(coreIDs []int) {
	if m.shards.NumShards() == 1 {
		return
	}
	for _, id := range coreIDs {
		c := m.cores[id]
		c.logPoints = true
		c.busyLog = append(c.busyLog[:0],
			busyPoint{at: c.lastSettle, busy: c.busy, runnable: len(c.active) > 0})
	}
}

// trimBusyLogs runs at every barrier of a multi-shard machine. It drops
// from each busy log the entries before the last one at or before the
// previous barrier, which stays as the baseline, so a log holds at most
// two windows of settles. A late reading comes from a finish that a
// barrier hook (the charm runtime's consolidation) reports at the first
// barrier after it, so it asks for a time after the previous barrier,
// whichever of the two hooks runs first.
func (m *Machine) trimBusyLogs() {
	prev := m.lastBarrier
	m.lastBarrier = m.shards.Now()
	for _, c := range m.cores {
		if i := c.settledBy(prev) - 1; i > 0 {
			n := copy(c.busyLog, c.busyLog[i:])
			c.busyLog = c.busyLog[:n]
		}
	}
}
