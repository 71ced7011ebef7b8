package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cloudlb/internal/apps"
	"cloudlb/internal/experiment"
	"cloudlb/internal/machine"
	"cloudlb/internal/obs"
	"cloudlb/internal/service/store"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// ladderBenchtime is each rung's measuring time. The rungs are per-layer
// numbers without a bound; this keeps the whole ladder near five seconds.
const ladderBenchtime = "100ms"

// rung is one microbenchmark of the layer ladder: a public call of one
// layer, timed with testing.Benchmark, and how its result maps onto
// per-layer metrics.
type rung struct {
	name   string
	bench  func(b *testing.B)
	report func(r testing.BenchmarkResult, vals map[string]float64)
}

// nsPerOp is the rung's mean time per op in nanoseconds, unrounded.
func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// timeAs reports the rung's time per op as metric name in units of div
// nanoseconds.
func timeAs(name string, div float64) func(testing.BenchmarkResult, map[string]float64) {
	return func(r testing.BenchmarkResult, vals map[string]float64) { vals[name] = nsPerOp(r) / div }
}

// ladderRungs lists the ladder bottom-up: event schedule, machine burst
// settle, charm superstep, xnet delivery clean and lossy, one LB plan per
// strategy and size, the stencil kernels, Spec canonical hash and
// validation, and the artifact store. dir holds the store rung's objects.
func ladderRungs(dir string) ([]rung, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	// A rows.json-sized payload.
	payload := []byte(strings.Repeat(`{"app_wall":0.1234,"events":41888},`, 64))
	spec := cloudSpec(1)

	rungs := []rung{
		{"sim.event", engineSchedule, timeAs("sim.event_ns", 1)},
		{"machine.burst", burstCycle, timeAs("machine.burst_cycle_ns", 1)},
		{"charm.superstep", superstep, func(r testing.BenchmarkResult, vals map[string]float64) {
			vals["charm.superstep_us"] = nsPerOp(r) / 1e3
			vals["charm.superstep_allocs"] = float64(r.MemAllocs) / float64(r.N)
			vals["charm.superstep_kb"] = float64(r.MemBytes) / float64(r.N) / 1e3
		}},
		{"xnet.send_intra", networkSend(xnet.Config{}, 0, 1), timeAs("xnet.send_intra_ns", 1)},
		{"xnet.send_inter", networkSend(xnet.Config{}, 0, 4), timeAs("xnet.send_inter_ns", 1)},
		{"xnet.send_lossy", networkSend(xnet.Config{DropPct: 2, Seed: 1}, 0, 4), timeAs("xnet.send_lossy_ns", 1)},
		{"apps.wave_step", kernelStep(apps.NewWaveKernel(32, 32, 0.4)), timeAs("apps.wave_step_us", 1e3)},
		{"apps.jacobi_step", kernelStep(apps.NewJacobiKernel(32, 32)), timeAs("apps.jacobi_step_us", 1e3)},
		{"experiment.spec_hash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = spec.Hash()
			}
		}, timeAs("experiment.spec_hash_us", 1e3)},
		{"experiment.spec_validate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := spec.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		}, timeAs("experiment.spec_validate_us", 1e3)},
		{"service.store_put", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.PutBytes(payload); err != nil {
					b.Fatal(err)
				}
			}
		}, timeAs("service.store_put_us", 1e3)},
		{"service.store_get", func(b *testing.B) {
			h, err := st.PutBytes(payload)
			if err == nil {
				err = st.Link("bench-key", h)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := st.Resolve("bench-key")
				if err == nil {
					_, err = st.Get(h)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}, timeAs("service.store_get_us", 1e3)},
	}

	// The strategy-planning set shared with the root benchmark suite.
	plans := map[string]string{
		"StrategyPlanRefineLB32c2k":           "lb.plan_ms.RefineLB.32c2k",
		"StrategyPlanRefineLB256c20k":         "lb.plan_ms.RefineLB.256c20k",
		"StrategyPlanGreedyLB256c20k":         "lb.plan_ms.GreedyLB.256c20k",
		"StrategyPlanRefineLB1024c100k":       "lb.plan_ms.RefineLB.1024c100k",
		"StrategyPlanDiffusionLBPerPE256c20k": "lb.plan_ms.DiffusionLB-perPE.256c20k",
	}
	for _, nb := range experiment.StrategyPlanBenchmarks() {
		metric, ok := plans[nb.Name]
		if !ok {
			continue
		}
		run := nb.Run
		rungs = append(rungs, rung{nb.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run()
			}
		}, timeAs(metric, 1e6)})
		delete(plans, nb.Name)
	}
	if len(plans) > 0 {
		return nil, fmt.Errorf("experiment.StrategyPlanBenchmarks lacks %v", plans)
	}
	return rungs, nil
}

// runLadder times every rung, recording a span per rung on bt.
func runLadder(bt *obs.Trace, vals map[string]float64) error {
	testing.Init()
	if err := flag.Set("test.benchtime", ladderBenchtime); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "bench-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rungs, err := ladderRungs(dir)
	if err != nil {
		return err
	}
	for _, r := range rungs {
		span := bt.Start(catBench, "ladder", 0)
		res := testing.Benchmark(r.bench)
		span.End("rung", r.name, "n", res.N)
		if res.N == 0 {
			return fmt.Errorf("ladder rung %s failed", r.name)
		}
		r.report(res, vals)
	}
	return nil
}

// engineSchedule schedules one event and fires one against a steady
// queue of 256 pending events.
func engineSchedule(b *testing.B) {
	e := sim.NewEngine()
	nop := func() {}
	for i := 0; i < 256; i++ {
		e.At(sim.Time(i), nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(256, nop)
		e.Step()
	}
}

// burstCycle runs two overlapping bursts on one core to completion: the
// processor-sharing settle/arm cycle every share change pays.
func burstCycle(b *testing.B) {
	eng := sim.NewEngine()
	m := machine.New(eng, machine.Config{Nodes: 1, CoresPerNode: 1, CoreSpeed: 1})
	t1 := m.NewThread("a", m.Core(0), 1)
	t2 := m.NewThread("b", m.Core(0), 1)
	nop := func() {}
	cycle := func() {
		t1.Run(0.5, nop)
		t2.Run(0.7, nop)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// superstep advances a steady-state 32-chare Wave2D world one iteration.
func superstep(b *testing.B) {
	s := experiment.NewSteadyIterBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepOnce()
	}
}

// networkSend sends one 1 KiB message from core src to core dst of a
// two-node, four-core-per-node machine and runs it to delivery.
func networkSend(cfg xnet.Config, src, dst int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		m := machine.New(eng, machine.Config{Nodes: 2, CoresPerNode: 4, CoreSpeed: 1})
		n := xnet.New(m, cfg.Resolved())
		nop := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send(src, dst, 1024, nop)
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// kernelStep advances one 32×32 stencil block with physical boundaries.
func kernelStep(newKernel func(bx, by, x0, y0, w, h int) apps.Kernel) func(b *testing.B) {
	return func(b *testing.B) {
		k := newKernel(0, 0, 0, 0, 32, 32)
		edges := map[int][]float64{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step(edges)
		}
	}
}
