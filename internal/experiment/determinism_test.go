package experiment

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/elastic"
	"cloudlb/internal/machine"
	"cloudlb/internal/metrics"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// The sharded scheduler's contract is byte-identical results at any shard
// count: sharding must be a pure wall-clock optimization. These tests pin
// that contract on a mid-size Wave2D run with load balancing and the
// interfering background job — LB steps exercise the window-aligned
// sequential sections, the background job the cross-shard traffic.

// outcome is everything of a run the shard count must not change: its
// Result, a comparable metric snapshot and a hash of the trace timeline.
type outcome struct {
	res  Result
	vals map[string]float64
	hash uint64
}

// runOutcome runs s with a fresh trace recorder and metrics registry.
func runOutcome(s Scenario) outcome {
	rec := trace.NewRecorder()
	reg := metrics.NewRegistry()
	s.Trace, s.Metrics = rec, reg
	res := Run(s)
	return outcome{res: res, vals: metricValues(reg, ShardSeries, HostTimeSeries), hash: traceHash(rec)}
}

// diffOutcomes reports every way got differs from want.
func diffOutcomes(t *testing.T, name string, got, want outcome) {
	t.Helper()
	if !resultsEqual(got.res, want.res) {
		t.Errorf("%s: Result diverged:\n got %+v\nwant %+v", name, got.res, want.res)
	}
	if got.hash != want.hash {
		t.Errorf("%s: trace hash %x, want %x", name, got.hash, want.hash)
	}
	for k, w := range want.vals {
		if g, ok := got.vals[k]; !ok || g != w {
			t.Errorf("%s: metric %s = %v, want %v", name, k, got.vals[k], w)
		}
	}
	for k := range got.vals {
		if _, ok := want.vals[k]; !ok {
			t.Errorf("%s: unexpected extra metric %s", name, k)
		}
	}
}

// detScenario is the reference scenario of the determinism tests.
func detScenario(shards int) Scenario {
	return Scenario{
		App: Wave2D, Cores: 32, Strategy: Refine, BG: BGWave2D,
		Seed: 7, Scale: 0.1, Shards: shards,
	}
}

// metricValues flattens a registry into name|labels -> value, dropping
// the series of the skip sets: across shard counts, the ones that
// legitimately differ, ShardSeries and HostTimeSeries.
//
// xnet_link_busy_seconds is compared exactly: the network accumulates
// NIC busy time per source node (single writer, shard-invariant addition
// order) and publishes a fixed-shape pairwise reduction, so the float is
// bit-identical at any shard count.
func metricValues(reg *metrics.Registry, skip ...map[string]bool) map[string]float64 {
	vals := make(map[string]float64)
series:
	for _, s := range reg.Gather().Series {
		for _, sk := range skip {
			if sk[s.Name] {
				continue series
			}
		}
		k := s.Name
		for _, l := range s.Labels {
			k += "|" + l.Name + "=" + l.Value
		}
		if s.Kind == "histogram" {
			vals[k+"|sum"] = s.Sum
			vals[k+"|count"] = float64(s.Count)
			continue
		}
		vals[k] = s.Value
	}
	return vals
}

// traceHash digests the sorted timeline. Segments() sorts by (core,
// start) with insertion order breaking ties, and each core's segments are
// appended by exactly one shard in virtual-time order, so equal runs hash
// equal regardless of shard interleaving.
func traceHash(rec *trace.Recorder) uint64 {
	h := fnv.New64a()
	for _, seg := range rec.Segments() {
		fmt.Fprintf(h, "%d|%d|%x|%x|%s\n", seg.Core, seg.Kind,
			float64(seg.Start), float64(seg.End), seg.Label)
	}
	return h.Sum64()
}

// TestShardedDeterminism asserts that every shard count, at every
// parallelism level, reproduces the one-shard run bit for bit: identical
// Result, identical comparable metrics, identical trace.
func TestShardedDeterminism(t *testing.T) {
	base := runOutcome(detScenario(1))
	for _, gmp := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(gmp)
		for _, n := range []int{2, 4, 8} {
			diffOutcomes(t, fmt.Sprintf("shards=%d/GOMAXPROCS=%d", n, gmp), runOutcome(detScenario(n)), base)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestShardedDeterminismLossyNet extends the contract to the unreliable
// network: seeded drops, retransmits and a straggler node must reproduce
// bit for bit at every shard count — the drop lottery is a pure hash of
// per-pair sequence numbers owned by the sending shard, so neither the
// partition nor goroutine interleaving can change which transmissions
// are lost.
func TestShardedDeterminismLossyNet(t *testing.T) {
	lossy := func(shards int) Scenario {
		s := detScenario(shards)
		s.Net = xnet.Config{
			DropPct: 2, Seed: 9,
			StragglerNodes: []int{1}, StragglerFactor: 4,
		}
		return s
	}
	base := runOutcome(lossy(1))
	if base.res.NetDrops == 0 {
		t.Fatal("lossy reference run lost nothing; the matrix would prove nothing")
	}
	for _, n := range []int{2, 4, 8} {
		diffOutcomes(t, fmt.Sprintf("shards=%d", n), runOutcome(lossy(n)), base)
	}
}

// TestShardsAutoResolve pins the -shards knob semantics: Run clamps a
// count into [1, nodes], "auto" is the pool's choice (0), and the pool
// gives two shards only to a scenario that leaves it the choice, has at
// least 256 cores, and carries no metrics registry or fault schedule. A
// trace recorder does not stop it. Below 256 cores the pool gives a
// kernel worker instead, to any scenario that runs on one shard.
func TestShardsAutoResolve(t *testing.T) {
	cases := []struct{ in, nodes, want int }{
		{-1, 8, 1}, {0, 8, 1}, {1, 8, 1}, {2, 8, 2}, {8, 8, 8}, {64, 8, 8},
	}
	for _, c := range cases {
		if got := resolveShards(c.in, c.nodes); got != c.want {
			t.Errorf("resolveShards(%d, %d) = %d, want %d", c.in, c.nodes, got, c.want)
		}
	}
	if n, err := ParseShards("auto"); n != 0 || err != nil {
		t.Errorf(`ParseShards("auto") = %d, %v; want 0`, n, err)
	}
	large := Scenario{App: Wave2D, Cores: poolShardMinCores, Strategy: Diffusion}
	with := func(f func(*Scenario)) Scenario {
		s := large
		f(&s)
		return s
	}
	testbed := func(f func(*Scenario)) Scenario {
		return with(func(s *Scenario) { s.App, s.Cores = Mol3D, testbedCores; f(s) })
	}
	rule := []struct {
		name        string
		s           Scenario
		perScenario int
		want        int
		worker      bool // PoolGrant's kernel worker
	}{
		{"pool decides", large, 2, 2, false},
		{"pool decides, four idle", large, 4, 2, false},
		{"older auto", with(func(s *Scenario) { s.Shards = -1 }), 2, 2, false},
		{"no idle worker", large, 1, 0, false},
		{"explicit one shard", with(func(s *Scenario) { s.Shards = 1 }), 2, 1, false},
		{"explicit count", with(func(s *Scenario) { s.Shards = 8 }), 2, 8, false},
		{"below 256 cores", with(func(s *Scenario) { s.Cores = 128 }), 2, 0, false},
		{"Mol3D below 256 cores", with(func(s *Scenario) { s.App, s.Cores = Mol3D, 128 }), 2, 0, true},
		{"Mol3D at 256 cores", with(func(s *Scenario) { s.App = Mol3D }), 2, 2, false},
		{"trace recorder", with(func(s *Scenario) { s.Trace = trace.NewRecorder() }), 2, 2, false},
		{"metrics registry", with(func(s *Scenario) { s.Metrics = metrics.NewRegistry() }), 2, 0, false},
		{"faults", with(func(s *Scenario) { s.Faults = elastic.Schedule{{PE: 1, At: 0.1}} }), 2, 0, false},
		{"testbed", testbed(func(*Scenario) {}), 2, 0, true},
		{"testbed, Wave2D", testbed(func(s *Scenario) { s.App = Wave2D }), 2, 0, false},
		{"testbed, Jacobi2D", testbed(func(s *Scenario) { s.App = Jacobi2D }), 2, 0, false},
		{"testbed, background job alone", testbed(func(s *Scenario) { s.App = AppNone }), 2, 0, false},
		{"testbed, no idle worker", testbed(func(*Scenario) {}), 1, 0, false},
		{"testbed, explicit one shard", testbed(func(s *Scenario) { s.Shards = 1 }), 2, 1, true},
		{"testbed, explicit two shards", testbed(func(s *Scenario) { s.Shards = 2 }), 2, 2, false},
		{"testbed, metrics registry", testbed(func(s *Scenario) { s.Metrics = metrics.NewRegistry() }), 2, 0, true},
		{"testbed, faults", testbed(func(s *Scenario) { s.Faults = elastic.Schedule{{PE: 1, At: 0.1}} }), 4, 0, true},
	}
	for _, c := range rule {
		if g := PoolGrant(c.s, c.perScenario); g.Shards != c.want || g.kernelWorker != c.worker {
			t.Errorf("%s: PoolGrant(.., %d) gives %d shards, kernel worker %v; want %d, %v",
				c.name, c.perScenario, g.Shards, g.kernelWorker, c.want, c.worker)
		}
	}
}

// ringChare circulates messages around the full testbed forever, holding
// the runtime stack (engine, OS scheduler, NIC queues, charm messaging)
// in steady state for as long as a measurement needs.
type ringChare struct{ next charm.ChareID }

func (c *ringChare) PackSize() int { return 64 }
func (c *ringChare) Recv(ctx *charm.Ctx, data interface{}) float64 {
	ctx.Send(c.next, struct{}{}, 256)
	return 2e-6
}

// ringSteadyAllocs builds the full 32-core testbed over n shards with a
// ring of messages circulating forever, warms it 0.5 s past the startup
// transient, and reports the allocations of one 10 ms RunUntil. kern
// gives the runtime a kernel worker.
func ringSteadyAllocs(t *testing.T, n int, kern *charm.KernelWorker) float64 {
	t.Helper()
	netCfg := xnet.DefaultConfig()
	sh := sim.NewShards(n, sim.Time(netCfg.MinInterNodeLatency(testbedNodes)))
	defer sh.Close()
	mach := testbed(sh, testbedNodes, nil)
	net := xnet.New(mach, netCfg)
	cores := make([]int, testbedCores)
	for i := range cores {
		cores[i] = i
	}
	rts := charm.NewRTS(charm.Config{
		Machine: mach, Net: net, Cores: cores,
		Placement: charm.PlaceBlock, Kernels: kern,
	})
	chares := 2 * testbedCores
	rts.NewArray("ring", chares, func(i int) charm.Chare {
		return &ringChare{next: charm.ChareID{Array: "ring", Index: (i + 1) % chares}}
	})
	rts.Start()
	if err := sh.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		if err := sh.RunUntil(sh.Now() + 0.01); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClassicScenarioSteadyStateAllocFree is the allocation gate for the
// one-shard scheduler (-shards 1, and every run the pool leaves unsharded):
// once the pools are primed,
// driving the runtime stack forward over the full testbed — cross-node
// messages, NIC serialization, per-shard message pools and in-flight
// accounting included — must not allocate, with or without a kernel
// worker. Application kernels own their payload allocations and are
// deliberately outside the gate.
func TestClassicScenarioSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	if avg := ringSteadyAllocs(t, 1, nil); avg != 0 {
		t.Errorf("steady-state runtime stack: %.2f allocs per 10ms window, want 0", avg)
	}
	if avg := ringSteadyAllocs(t, 1, stopAtEnd(t, charm.StartKernelWorker())); avg != 0 {
		t.Errorf("steady-state runtime stack with a kernel worker: %.2f allocs per 10ms window, want 0", avg)
	}
}

// stopAtEnd stops w when the test ends.
func stopAtEnd(t *testing.T, w *charm.KernelWorker) *charm.KernelWorker {
	t.Cleanup(func() { w.Stop() })
	return w
}

// TestShardedScenarioSteadyStateAllocFree is the same gate across shards:
// conservative windows, mailbox drains in canonical order, barrier hooks
// and worker hand-offs must not allocate either.
func TestShardedScenarioSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, n := range []int{2, 8} {
		if avg := ringSteadyAllocs(t, n, nil); avg != 0 {
			t.Errorf("%d shards: %.2f allocs per 10ms of steady state, want 0", n, avg)
		}
	}
}

// TestStencilSteadyStateAllocFree is the allocation gate for the stencil
// applications over the runtime stack: a steady-state Wave2D superstep —
// edge exchange, kernel steps, messaging and scheduling — must not
// allocate, with its steps' tails inline or on a kernel worker.
func TestStencilSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s := NewSteadyIterBench()
	if avg := testing.AllocsPerRun(50, s.StepOnce); avg != 0 {
		t.Errorf("steady-state Wave2D superstep: %.2f allocs, want 0", avg)
	}
	s = newSteadyIterBench(stopAtEnd(t, charm.StartKernelWorker()))
	if avg := testing.AllocsPerRun(50, s.StepOnce); avg != 0 {
		t.Errorf("steady-state Wave2D superstep with a kernel worker: %.2f allocs, want 0", avg)
	}
}

// TestMol3DSteadyStateAllocFree is the same gate for Mol3D: once its
// exchange buffers have grown to the largest cell, a superstep — ghost
// and mover exchange, pair forces, integration and departures — must not
// allocate, inline or on a kernel worker.
func TestMol3DSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, kern := range []*charm.KernelWorker{nil, stopAtEnd(t, charm.StartKernelWorker())} {
		if avg := mol3dSteadyAllocs(t, kern); avg != 0 {
			t.Errorf("steady-state Mol3D superstep (kernel worker %v): %.2f allocs, want 0", kern != nil, avg)
		}
	}
}

// mol3dSteadyAllocs warms a 16-cell Mol3D world on 4 PEs for 200
// supersteps and reports the allocations of one more.
func mol3dSteadyAllocs(t *testing.T, kern *charm.KernelWorker) float64 {
	eng := sim.NewEngine()
	mach := machine.New(eng, machine.Config{Nodes: 1, CoresPerNode: 4, CoreSpeed: 1})
	net := xnet.New(mach, xnet.DefaultConfig())
	rts := charm.NewRTS(charm.Config{Machine: mach, Net: net, Cores: []int{0, 1, 2, 3}, Kernels: kern})
	app := apps.NewMol3DApp(rts, apps.Mol3DConfig{
		CellsX: 4, CellsY: 4, CellsZ: 1,
		CellSize: 1.0, Particles: 200, ClusterFrac: 0.4,
		Seed: 1, Dt: 1e-3, Iters: 1 << 30,
		CostPerPair: 1e-8,
	})
	rts.Start()
	iter := 0
	superstep := func() {
		iter++
		for i := 0; i < app.NumCells(); i++ {
			for app.Iterations(i) < iter {
				if !eng.Step() {
					t.Fatal("Mol3D world ran out of events")
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		superstep()
	}
	return testing.AllocsPerRun(100, superstep)
}
