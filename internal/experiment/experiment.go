// Package experiment reproduces the paper's evaluation: it assembles the
// simulated testbed (8 nodes x 4 cores, per-node power meters), the
// measured application, the interfering 2-core Wave2D job, and a load
// balancing strategy, runs them together, and reports the quantities
// behind every figure of the paper.
package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/elastic"
	"cloudlb/internal/interfere"
	"cloudlb/internal/lb"
	"cloudlb/internal/machine"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/power"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// AppKind selects the measured application.
type AppKind int

// Applications of the paper's evaluation (AppNone measures the background
// job running alone).
const (
	AppNone AppKind = iota
	Jacobi2D
	Wave2D
	Mol3D
)

// StrategyKind selects the load balancer.
type StrategyKind int

// Strategies under evaluation.
const (
	NoLB StrategyKind = iota
	Refine
	RefineInternal
	RefineSwap
	Greedy
	Threshold
	CostAware
	Diffusion
)

// buildStrategy constructs the balancer. interNodeBW is the scenario
// network's resolved inter-node bandwidth — the migration-cost model must
// price moves over the same links the runtime actually pays for, not a
// separate copy of the defaults.
func buildStrategy(k StrategyKind, epsFrac, interNodeBW float64, diffRounds int, diffTol float64) core.Strategy {
	if epsFrac <= 0 {
		epsFrac = defaultEpsilonFrac
	}
	switch k {
	case NoLB:
		return nil
	case Refine:
		return &core.RefineLB{EpsilonFrac: epsFrac}
	case RefineInternal:
		return &lb.RefineInternalLB{Inner: core.RefineLB{EpsilonFrac: epsFrac}}
	case RefineSwap:
		return &lb.RefineSwapLB{Inner: core.RefineLB{EpsilonFrac: epsFrac}}
	case Greedy:
		return lb.GreedyLB{}
	case Threshold:
		return &lb.ThresholdLB{}
	case CostAware:
		return &lb.MigrationCostAwareLB{
			Inner:          &core.RefineLB{EpsilonFrac: epsFrac},
			BytesPerSecond: interNodeBW,
		}
	case Diffusion:
		return &lb.DiffusionLB{Rounds: diffRounds, Tol: diffTol}
	}
	panic(fmt.Sprintf("experiment: unknown strategy %d", k))
}

// BGKind selects the interference.
type BGKind int

// Interference configurations.
const (
	BGNone BGKind = iota
	// BGWave2D is the paper's 2-core Wave2D job on the last two cores of
	// the application's allocation.
	BGWave2D
	// BGCloudChurn is the paper's future-work setting: tenant VMs arrive
	// and depart randomly across all of the application's cores.
	BGCloudChurn
)

// Scenario is one run configuration.
type Scenario struct {
	App      AppKind
	Cores    int
	Strategy StrategyKind
	BG       BGKind
	// Seed drives measurement noise: per-chare cost jitter, the Mol3D
	// particle layout, and the background job's start offset.
	Seed int64
	// BGWeight is the OS scheduling weight of the background job's
	// threads relative to the application's (default 1). The Mol3D
	// experiments raise it to model the OS preference for the
	// background job that the paper observed (§V.A).
	BGWeight float64
	// BGIters overrides the background job's iteration count (0 uses the
	// default). The background load must span the interfered run, so the
	// heavily-slowed Mol3D runs use a longer background job.
	BGIters int
	// Scale shrinks iteration counts for quick runs (default 1.0).
	Scale float64
	// SyncEvery overrides the LB period in iterations (0 = default 10).
	SyncEvery int
	// CharesPerCore overrides the over-decomposition ratio (0 = default
	// 32). The cloud-scale Figure 7 runs lower it so 1024 cores stay near
	// the paper's ~100k-object regime.
	CharesPerCore int
	// StencilBlock overrides the per-chare stencil block edge in cells
	// (0 = default 16). Smaller blocks shrink per-chare kernel state, the
	// memory knob for very large chare counts.
	StencilBlock int
	// DiffRounds and DiffTol configure DiffusionLB: the per-step round
	// bound (0 = default 16) and the convergence band as a fraction of the
	// live-core average load (0 = default 0.05). Ignored by every other
	// strategy.
	DiffRounds int
	DiffTol    float64
	// EpsilonFrac overrides RefineLB's tolerance as a fraction of T_avg
	// (0 = default 0.02). Only meaningful for refinement strategies.
	EpsilonFrac float64
	// Hierarchical routes LB statistics and orders along the runtime's
	// spanning tree instead of a flat gather at PE 0.
	Hierarchical bool
	// Faults is an optional schedule of core revocations and replacements
	// applied to the application's runtime (cloud elasticity; see
	// internal/elastic). Requires an application.
	Faults elastic.Schedule
	// Hogs are single-core interfering jobs with start and stop times, the
	// moving interference of the Figure 1 and 3 timelines and of
	// cmd/timeline. Run starts each on the scenario's Trace (a hog's own
	// Trace field is ignored). Spec has no counterpart: the wire format
	// describes no hogs.
	Hogs []interfere.HogConfig
	// Net describes the cluster interconnect: link parameters, per-link
	// overrides, straggler nodes, seeded packet loss (see xnet.Config).
	// Zero fields inherit xnet.DefaultConfig via Resolved; the zero value
	// is exactly today's uniform reliable network. The resolved config is
	// the single source for both the Network and the sharded scheduler's
	// conservative lookahead.
	Net xnet.Config
	// Trace, when non-nil, records timelines.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the run's telemetry: engine event
	// counts, per-core busy/idle, and the application runtime's series
	// and LB-step rows (labeled rts=app). Scenarios sharing a registry
	// accumulate into the same series, which is the intended aggregate
	// view; nil disables instrumentation at zero hot-path cost.
	Metrics *metrics.Registry
	// Obs, when non-nil, records host-time spans for the run's internal
	// intervals — the engine drive loop, shard window barrier stalls,
	// AtSync/LB rounds, retransmit bursts — on the job trace the service
	// (or a -trace-spans CLI run) threads through the context. Nil
	// disables span recording; the guard is a single pointer check, so
	// the simulation hot paths stay allocation-free.
	Obs *obs.Trace
	// ObsTID is the Chrome-trace thread row Obs spans land on, so one
	// job's scenarios render as separate waterfall rows.
	ObsTID int
	// MaxVirtualTime bounds the simulation (default 10000 s).
	MaxVirtualTime sim.Time
	// Shards sets the scheduler's shard count. 0 (or any negative value)
	// leaves it to the runner pool, which shards a scenario only when its
	// workers would otherwise idle (see PoolGrant); Run itself runs it on
	// one shard. 1 runs one shard, which is a single engine; N > 1
	// partitions the machine by node into N conservatively-synchronized
	// shards executing in parallel (clamped to the node count). Every
	// value produces byte-identical results — sharding is purely a
	// wall-clock optimization.
	Shards int

	// kernelWorker runs the scenario's deferred application kernels on a
	// second goroutine (charm.KernelWorker). Only PoolGrant sets it; it
	// changes no result either.
	kernelWorker bool
}

// Result is one run's measurements.
type Result struct {
	// AppWall is the application's completion time (NaN for AppNone).
	AppWall float64
	// BGWall is the background job's completion time (NaN without BG).
	BGWall float64
	// AvgPowerW and EnergyJ are metered over the application's nodes
	// from start to application completion (to BG completion for
	// AppNone).
	AvgPowerW float64
	EnergyJ   float64
	// Migrations and LBSteps count the strategy's activity.
	Migrations int
	LBSteps    int
	// Evacuations counts chares moved off revoked cores by the fault
	// schedule (0 without one).
	Evacuations int
	// Events is the number of simulation events the run executed — the
	// engine-level work metric behind throughput reporting.
	Events uint64
	// NetDrops and NetRetransmits count inter-node transmissions lost to
	// the seeded drop lottery and the retransmissions that recovered them
	// (0 on a reliable network).
	NetDrops       uint64
	NetRetransmits uint64
}

// testbedCores is the testbed's total core count.
const testbedCores = 32

// testbed returns the evaluation machine shape — nodes x 4 cores — driven
// by sh. The paper's testbed is testbedNodes nodes; the cloud-scale
// scenarios grow the node count with the allocation.
func testbed(sh *sim.Shards, nodes int, reg *metrics.Registry) *machine.Machine {
	return machine.NewSharded(sh, machine.Config{Nodes: nodes, CoresPerNode: 4, CoreSpeed: 1, Metrics: reg})
}

// testbedNodes is the testbed's node count — the upper bound on shards.
const testbedNodes = 8

// clusterNodes is the node count of the cluster a cores-core scenario
// runs on. Up to the paper's 32 cores it is the fixed 8-node testbed (a
// small allocation occupies its first nodes); past it the cluster grows
// with the allocation, one node per 4 cores.
func clusterNodes(cores int) int {
	if cores > testbedCores {
		return cores / 4
	}
	return testbedNodes
}

// ParseShards parses a -shards command-line value: a non-negative count,
// where 0 lets the runner pool decide (see PoolGrant) and 1 is one shard,
// a single engine. "auto", the older spelling of "the pool decides", maps
// to 0.
func ParseShards(v string) (int, error) {
	if strings.EqualFold(v, "auto") {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("experiment: -shards must be a non-negative integer or \"auto\", got %q", v)
	}
	return n, nil
}

// ParseStraggle parses a -straggle command-line value "NODES:FACTOR" —
// comma-separated straggler node IDs and the latency/bandwidth slowdown
// factor applied to every inter-node link touching them, e.g. "1:4" or
// "1,3:2.5". An empty value means no stragglers.
func ParseStraggle(v string) (nodes []int, factor float64, err error) {
	if v == "" {
		return nil, 1, nil
	}
	parts := strings.Split(v, ":")
	if len(parts) != 2 {
		return nil, 0, fmt.Errorf("experiment: -straggle must be NODES:FACTOR (e.g. \"1,3:4\"), got %q", v)
	}
	for _, f := range strings.Split(parts[0], ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, 0, fmt.Errorf("experiment: bad -straggle node %q", f)
		}
		nodes = append(nodes, n)
	}
	factor, err = strconv.ParseFloat(parts[1], 64)
	if err != nil || factor <= 0 {
		return nil, 0, fmt.Errorf("experiment: bad -straggle factor %q (must be positive)", parts[1])
	}
	return nodes, factor, nil
}

// resolveShards maps the Scenario.Shards knob to a concrete shard count:
// anything below 2 is one shard, and larger counts clamp to the node
// count.
func resolveShards(v, nodes int) int {
	return max(1, min(v, nodes))
}

// poolShardMinCores is the smallest allocation PoolGrant shards and
// poolShardCount the count it gives. On a 2-core host two shards cut a
// lone 256-core scenario by about a quarter; at 128 cores the gain stayed
// inside the spread of the runs, and 64 cores and the 32-core testbed are
// slower at two (DESIGN.md §10). Larger counts are not measured.
const (
	poolShardMinCores = 256
	poolShardCount    = 2
)

// PoolGrant returns s as a runner pool runs it when perScenario of its
// workers would otherwise idle for each scenario of the batch. It is the
// pool's one decision on how a scenario uses idle workers: two shards at
// poolShardMinCores cores or more, a kernel worker for Mol3D below that.
// A scenario that leaves the shard count to the pool (Shards <= 0) and
// is large enough takes two shards, unless it carries a metrics registry
// or a fault schedule: the registry's ShardSeries depend on the
// partition, and a fault schedule forces the run sequential anyway. A
// smaller Mol3D scenario that runs on one shard takes a kernel worker,
// which runs its entries' deferred kernels beside the event thread
// (charm.KernelWorker). On a 2-core host the worker cuts mol3d-32c by
// about a third, where two shards lose; the stencils are left without
// one until it is measured on them (DESIGN.md §10).
func PoolGrant(s Scenario, perScenario int) Scenario {
	if perScenario < poolShardCount {
		return s
	}
	if s.Cores < poolShardMinCores {
		s.kernelWorker = s.App == Mol3D && resolveShards(s.Shards, clusterNodes(s.Cores)) == 1
	} else if s.Shards <= 0 && s.Metrics == nil && len(s.Faults) == 0 {
		s.Shards = poolShardCount
	}
	return s
}

// Registry series that describe how a scenario was executed rather than
// what it simulated. HostTimeSeries are measured in host seconds and
// vary from run to run. ShardSeries depend on the partition: the
// pending-event heap's high-water mark (one heap per shard) and envelope
// reuse (one pool per shard). Every other series is identical at every
// shard count.
var (
	HostTimeSeries = map[string]bool{"charm_lb_strategy_wall_seconds_total": true}
	ShardSeries    = map[string]bool{"sim_event_heap_depth_max": true, "charm_messages_pooled_total": true}
)

// WithoutHostTime returns snap less what was measured in host seconds:
// the HostTimeSeries, and each LB-step row's strategy_wall, zeroed. The
// rest is virtual time and event counts, identical from run to run. It
// reuses snap's slices.
func WithoutHostTime(snap metrics.Snapshot) metrics.Snapshot {
	kept := snap.Series[:0]
	for _, s := range snap.Series {
		if !HostTimeSeries[s.Name] {
			kept = append(kept, s)
		}
	}
	snap.Series = kept
	for i := range snap.LBSteps {
		snap.LBSteps[i].StrategyWall = 0
	}
	return snap
}

// Run executes one scenario to completion and returns its measurements.
func Run(s Scenario) Result {
	if s.Cores <= 0 || s.Cores%4 != 0 {
		panic(fmt.Sprintf("experiment: cores must be a positive multiple of 4, got %d", s.Cores))
	}
	nodes := clusterNodes(s.Cores)
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.BGWeight <= 0 {
		s.BGWeight = 1
	}
	if s.MaxVirtualTime <= 0 {
		s.MaxVirtualTime = defaultMaxVirtualTime
	}
	if s.App == AppNone && s.BG != BGWave2D {
		panic("experiment: AppNone requires the Wave2D background job (it is the thing being measured)")
	}

	// One resolved network config drives everything network-shaped in the
	// run: the Network itself, the scheduler's lookahead, and the
	// migration-cost model's bandwidth.
	netCfg := s.Net.Resolved()

	// Conservative lookahead = the minimum effective inter-node latency of
	// this scenario's network: every cross-node delivery lands at least
	// this far in the sender's future, which is what lets shards burn a
	// window in parallel. xnet.New re-validates the invariant against the
	// same config. One shard is a plain engine and never uses it.
	sh := sim.NewShards(resolveShards(s.Shards, nodes), sim.Time(netCfg.MinInterNodeLatency(nodes)))
	defer sh.Close()
	// A divergent model (e.g. a misconfigured workload that never drains)
	// should fail loudly instead of spinning; real scenarios stay well
	// under this limit.
	sh.SetEventLimit(2_000_000_000)
	sh.SetMetrics(s.Metrics)
	sh.SetObs(s.Obs, s.ObsTID)
	if len(s.Faults) > 0 {
		// Elastic revoke/evacuate handlers reach across every shard.
		sh.ForceSequential()
	}
	s.Trace.SetConcurrent(sh.NumShards() > 1)
	var kern *charm.KernelWorker
	if s.kernelWorker && sh.NumShards() == 1 {
		kern = charm.StartKernelWorker()
		defer kern.Stop()
	}
	mach := testbed(sh, nodes, s.Metrics)
	net := xnet.New(mach, netCfg)
	net.SetMetrics(s.Metrics)
	net.SetObs(s.Obs, s.ObsTID)
	rng := newRNG(s.Seed)

	var appRTS *charm.RTS
	if s.App != AppNone {
		cores := make([]int, s.Cores)
		for i := range cores {
			cores[i] = i
		}
		// Mol3D scatters cells by hash (round-robin or block mappings
		// re-correlate with the particle cluster's geometry at some core
		// counts), so heavy cells spread across all PEs, including the
		// interfered ones; the stencils use block placement for
		// ghost-exchange locality.
		placement := charm.PlaceBlock
		if s.App == Mol3D {
			placement = charm.PlaceHash
		}
		appRTS = charm.NewRTS(charm.Config{
			Machine: mach, Net: net, Cores: cores,
			Strategy:       buildStrategy(s.Strategy, s.EpsilonFrac, netCfg.InterNodeBandwidth, s.DiffRounds, s.DiffTol),
			Placement:      placement,
			HierarchicalLB: s.Hierarchical,
			Trace:          s.Trace,
			Name:           "app",
			Metrics:        s.Metrics,
			Obs:            s.Obs,
			ObsTID:         s.ObsTID,
			Kernels:        kern,
		})
		buildApp(appRTS, s, rng)
		s.Faults.Apply(appRTS)
	} else if len(s.Faults) > 0 {
		panic("experiment: Faults require an application (they revoke its cores)")
	}
	for _, h := range s.Hogs {
		h.Trace = s.Trace
		interfere.StartHog(mach, h)
	}

	var bg *interfere.Wave2DJob
	switch s.BG {
	case BGWave2D:
		iters := s.BGIters
		if iters <= 0 {
			iters = bgIters
		}
		bg = interfere.NewWave2DJob(mach, net, interfere.Wave2DJobConfig{
			Cores:   []int{s.Cores - 2, s.Cores - 1},
			Iters:   scaleIters(iters, s.Scale),
			Weight:  s.BGWeight,
			Trace:   s.Trace,
			Kernels: kern,
		})
	case BGCloudChurn:
		cores := make([]int, s.Cores)
		for i := range cores {
			cores[i] = i
		}
		interfere.StartChurn(mach, interfere.ChurnConfig{
			Cores:             cores,
			ArrivalsPerSecond: 2.0,
			MeanDuration:      1.5,
			Weight:            s.BGWeight,
			MaxConcurrent:     s.Cores / 2,
			Seed:              s.Seed,
			Trace:             s.Trace,
		})
	}

	// Meter the nodes the application occupies.
	meterNodes := make([]int, s.Cores/4)
	for i := range meterNodes {
		meterNodes[i] = i
	}
	meter := power.NewMeter(mach, power.DefaultModel(), 1, meterNodes)
	meter.Start()

	// The meter's final reading is taken for the exact finish time. With
	// more than one shard the finish callback fires at the first window
	// barrier after the last Done — possibly past the finish instant — so
	// the reading is reconstructed rather than sampled "now".
	if appRTS != nil {
		appRTS.Start()
		appRTS.SetOnAllDone(func() { meter.StopAsOf(appRTS.FinishTime()) })
	}
	if bg != nil {
		// Jittered start: interference does not arrive at a barrier. The
		// start touches cores on several shards, so it is a coordinator
		// global event.
		offset := sim.Time(0.05 * rng.Float64())
		sh.GlobalAt(offset, bg.Start)
		if appRTS == nil {
			bg.RTS.SetOnAllDone(func() { meter.StopAsOf(bg.FinishTime()) })
		}
	}

	finished := func() bool {
		if appRTS != nil && !appRTS.Finished() {
			return false
		}
		if bg != nil && !bg.Finished() {
			return false
		}
		return true
	}
	driveSpan := s.Obs.Start(obs.CatSim, "sim-drive", s.ObsTID)
	for !finished() && sh.Now() < s.MaxVirtualTime {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			panic(err)
		}
		// Publish per-core busy/idle from the owning goroutine so a live
		// /metrics scrape sees them move without touching scheduler state.
		mach.PublishMetrics()
	}
	if !finished() {
		panic(fmt.Sprintf("experiment: scenario %+v did not finish by t=%v", s, s.MaxVirtualTime))
	}
	mach.PublishMetrics()
	net.PublishMetrics()

	res := Result{AppWall: math.NaN(), BGWall: math.NaN()}
	if appRTS != nil {
		res.AppWall = float64(appRTS.FinishTime())
		res.Migrations = appRTS.Migrations()
		res.LBSteps = appRTS.LBSteps()
		res.Evacuations = appRTS.Evacuations()
	}
	if bg != nil {
		res.BGWall = float64(bg.FinishTime())
	}
	res.AvgPowerW = meter.AveragePowerWatts()
	res.EnergyJ = meter.EnergyJoules()
	res.NetDrops = net.Drops()
	res.NetRetransmits = net.Retransmits()
	res.Events = sh.Executed()
	ks := kern.Stop()
	driveSpan.End("events", res.Events, "shards", sh.NumShards(),
		"shard_events", sh.ShardEvents(), "shard_windows", sh.ShardWindows(),
		"merged_events", sh.MergedEvents(),
		"kernel_worker", kern != nil, "deferred_worker", ks.Worker, "deferred_joined", ks.Joined,
		"virtual_s", finiteOrZero(res.AppWall), "lb_steps", res.LBSteps)
	return res
}

// finiteOrZero keeps NaN walls (background-only runs) out of span args
// — encoding/json rejects NaN.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Workload sizing (weak scaling: 32 chares per core, fixed per-chare
// grain, so interference-free wall time is comparable across core counts).
// The over-decomposition ratio and RefineLB's epsilon are linked: a
// destination must be able to absorb one task without crossing T_avg+eps,
// so grain (~1/32 of a core's interval) must stay below ~2*eps*T_avg, and
// the background-induced uplift of T_avg (~1/P of the total) must exceed
// eps for any core to qualify as underloaded at P=32.
const (
	charesPerCore = 32
	stencilBlock  = 16 // 16x16 cells per chare
	jacobiIters   = 200
	waveIters     = 200
	mol3dIters    = 100
	syncEvery     = 10
	bgIters       = 600

	jacobiCostPerCell = 3.2e-6
	waveCostPerCell   = 2.8e-6
	mol3dCostPerPair  = 3e-6
	mol3dCostPerPart  = 1e-6
	mol3dPerCell      = 8 // average particles per cell
)

func scaleIters(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 2*syncEvery {
		v = 2 * syncEvery
	}
	return v
}

func buildApp(rts *charm.RTS, s Scenario, rng *rand.Rand) {
	perCore := s.CharesPerCore
	if perCore <= 0 {
		perCore = charesPerCore
	}
	block := s.StencilBlock
	if block <= 0 {
		block = stencilBlock
	}
	nChares := perCore * s.Cores
	jitter := costJitter(rng, nChares)
	period := s.SyncEvery
	if period <= 0 {
		period = syncEvery
	}
	switch s.App {
	case Jacobi2D:
		w, h := gridShape(nChares)
		apps.NewStencilApp(rts, apps.StencilConfig{
			Array: "jacobi",
			GridW: w * block, GridH: h * block,
			CharesX: w, CharesY: h,
			Iters:       scaleIters(jacobiIters, s.Scale),
			SyncEvery:   period,
			CostPerCell: jacobiCostPerCell,
			CostScale:   jitter,
			NewKernel:   apps.NewJacobiKernel(w*block, h*block),
		})
	case Wave2D:
		w, h := gridShape(nChares)
		apps.NewStencilApp(rts, apps.StencilConfig{
			Array: "wave",
			GridW: w * block, GridH: h * block,
			CharesX: w, CharesY: h,
			Iters:       scaleIters(waveIters, s.Scale),
			SyncEvery:   period,
			CostPerCell: waveCostPerCell,
			CostScale:   jitter,
			NewKernel:   apps.NewWaveKernel(w*block, h*block, 0.4),
		})
	case Mol3D:
		cx, cy := gridShape(nChares)
		apps.NewMol3DApp(rts, apps.Mol3DConfig{
			Array:  "mol3d",
			CellsX: cx, CellsY: cy, CellsZ: 1,
			CellSize: 1.0, Cutoff: 0.8,
			Particles:        mol3dPerCell * nChares,
			ClusterFrac:      0.3,
			ClusterSigmaFrac: 0.25,
			Seed:             s.Seed,
			Dt:               5e-4,
			Epsilon:          0.2,
			Iters:            scaleIters(mol3dIters, s.Scale),
			SyncEvery:        period,
			CostPerPair:      mol3dCostPerPair, CostPerParticle: mol3dCostPerPart,
		})
	default:
		panic(fmt.Sprintf("experiment: cannot build app %v", s.App))
	}
}

// newRNG seeds a scenario's measurement-noise stream.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*2654435761 + 12345))
}

// costJitter models run-to-run measurement noise: each chare's cost is
// scaled by a seeded factor of 1 +/- ~3%.
func costJitter(rng *rand.Rand, n int) func(int) float64 {
	f := make([]float64, n)
	for i := range f {
		v := 1 + 0.03*rng.NormFloat64()
		if v < 0.85 {
			v = 0.85
		}
		if v > 1.15 {
			v = 1.15
		}
		f[i] = v
	}
	return func(i int) float64 { return f[i] }
}

// gridShape factors n into the most square (w, h) with w*h == n, w >= h.
func gridShape(n int) (w, h int) {
	w, h = n, 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			w, h = n/d, d
		}
	}
	return w, h
}
