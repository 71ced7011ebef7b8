// Package interfere produces the interfering load of the paper's
// experiments:
//
//   - Hog: a CPU-bound single-thread job pinned to one core with a start
//     and stop time, used for the dynamic-interference timelines (Figs. 1
//     and 3).
//   - Wave2DJob: a complete 2-core Wave2D run in its own runtime instance
//     sharing the machine — exactly the background load of the paper's
//     Figure 2/4 experiments, whose own timing penalty is also measured.
package interfere

import (
	"fmt"

	"cloudlb/internal/apps"
	"cloudlb/internal/charm"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// hogBurstCPU is the CPU demand of each of a hog's back-to-back bursts.
const hogBurstCPU = 0.02

// HogConfig describes a single-core interfering job: fully CPU-bound,
// in bursts of 20 ms.
type HogConfig struct {
	// Core is the global core ID the hog is pinned to.
	Core int
	// Start and Stop bound the hog's lifetime; Stop <= Start means run
	// forever.
	Start, Stop sim.Time
	// Weight is the OS scheduling weight (default 1).
	Weight float64
	// Trace, when non-nil, records the hog's bursts as background
	// segments.
	Trace *trace.Recorder
	// Name labels the hog in traces.
	Name string
}

// Hog is a running interfering job.
type Hog struct {
	cfg  HogConfig
	mach *machine.Machine
	// eng is the engine of the hogged core's shard: all hog events stay on
	// it, so a hog never reaches across shards.
	eng     *sim.Engine
	thread  *machine.Thread
	stopped bool
	cpuUsed float64
}

// StartHog schedules the hog on its machine. The hog begins at cfg.Start
// and winds down at cfg.Stop (an in-flight burst is aborted at Stop so the
// core frees immediately, like killing the process).
func StartHog(m *machine.Machine, cfg HogConfig) *Hog {
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("hog@%d", cfg.Core)
	}
	h := &Hog{cfg: cfg, mach: m, eng: m.EngineFor(cfg.Core)}
	h.thread = m.NewThread(cfg.Name, m.Core(cfg.Core), cfg.Weight)
	h.eng.At(cfg.Start, h.loop)
	if cfg.Stop > cfg.Start {
		h.eng.At(cfg.Stop, h.stop)
	}
	return h
}

func (h *Hog) loop() {
	if h.stopped {
		return
	}
	eng := h.eng
	start := eng.Now()
	h.thread.Run(hogBurstCPU, func() {
		now := eng.Now()
		h.cpuUsed += hogBurstCPU
		h.cfg.Trace.Add(trace.Segment{
			Core: h.cfg.Core, Start: start, End: now,
			Kind: trace.KindBackground, Label: h.cfg.Name,
		})
		if h.stopped {
			return
		}
		h.loop()
	})
}

func (h *Hog) stop() {
	if h.stopped {
		return
	}
	h.stopped = true
	if rem := h.thread.Abort(); rem > 0 {
		h.cpuUsed += hogBurstCPU - rem
	}
	h.cfg.Trace.Mark(h.cfg.Core, h.eng.Now(), h.cfg.Name+" stops")
}

// Stopped reports whether the hog has wound down.
func (h *Hog) Stopped() bool { return h.stopped }

// CPUUsed reports the CPU-seconds the hog consumed.
func (h *Hog) CPUUsed() float64 { return h.cpuUsed }

// The background job's decomposition: bgCharesPerPE chares per PE, each a
// bgBlockSize x bgBlockSize block of cells.
const (
	bgCharesPerPE = 8
	bgBlockSize   = 16
)

// Wave2DJobConfig sizes the paper's 2-core background job.
type Wave2DJobConfig struct {
	// Cores are the global core IDs (normally two) the job runs on.
	Cores []int
	// CostPerCell and Iters size the job (defaults 4 us/cell and 400
	// iterations).
	CostPerCell float64
	Iters       int
	// Weight is the OS scheduling weight of the job's worker threads
	// (default 1). The Mol3D experiments raise it to model the OS
	// preference for the background job the paper observed.
	Weight float64
	// Trace, when non-nil, records the job's entries as background
	// segments.
	Trace *trace.Recorder
	// Name tags the job's runtime (default "bg").
	Name string
	// Kernels, when non-nil, is the scenario's kernel worker, shared
	// with the measured application (see charm.Config.Kernels).
	Kernels *charm.KernelWorker
}

func (c Wave2DJobConfig) withDefaults() Wave2DJobConfig {
	if c.CostPerCell <= 0 {
		c.CostPerCell = 4e-6
	}
	if c.Iters <= 0 {
		c.Iters = 400
	}
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Name == "" {
		c.Name = "bg"
	}
	return c
}

// Wave2DJob is the 2-core interfering Wave2D run.
type Wave2DJob struct {
	RTS *charm.RTS
	App *apps.StencilApp
	cfg Wave2DJobConfig
}

// NewWave2DJob builds the background job on its own runtime instance,
// sharing the machine and network with the measured application. Call
// Start on it alongside the application.
func NewWave2DJob(m *machine.Machine, net *xnet.Network, cfg Wave2DJobConfig) *Wave2DJob {
	c := cfg.withDefaults()
	if len(c.Cores) == 0 {
		panic("interfere: background job needs cores")
	}
	rts := charm.NewRTS(charm.Config{
		Machine: m, Net: net, Cores: c.Cores,
		ThreadWeight:      c.Weight,
		Trace:             c.Trace,
		TraceAsBackground: true,
		Name:              c.Name,
		Kernels:           c.Kernels,
	})
	grid := gridShape(bgCharesPerPE * len(c.Cores))
	w, h := grid[0]*bgBlockSize, grid[1]*bgBlockSize
	app := apps.NewStencilApp(rts, apps.StencilConfig{
		Array: c.Name + "-wave",
		GridW: w, GridH: h,
		CharesX: grid[0], CharesY: grid[1],
		Iters: c.Iters, CostPerCell: c.CostPerCell,
		NewKernel: apps.NewWaveKernel(w, h, 0.4),
	})
	return &Wave2DJob{RTS: rts, App: app, cfg: c}
}

// gridShape factors n into the most square (w, h) with w*h == n.
func gridShape(n int) [2]int {
	best := [2]int{n, 1}
	for w := 1; w*w <= n; w++ {
		if n%w == 0 {
			best = [2]int{n / w, w}
		}
	}
	return best
}

// Start launches the job.
func (j *Wave2DJob) Start() { j.RTS.Start() }

// Finished reports completion.
func (j *Wave2DJob) Finished() bool { return j.RTS.Finished() }

// FinishTime returns the job's completion time.
func (j *Wave2DJob) FinishTime() sim.Time { return j.RTS.FinishTime() }
