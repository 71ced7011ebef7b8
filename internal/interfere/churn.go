package interfere

import (
	"fmt"
	"math/rand"

	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// ChurnConfig describes a multi-tenant cloud's interference pattern: VM
// jobs arrive as a Poisson process, land on random cores of the set, run
// as CPU hogs for an exponentially distributed residence time, and
// depart. This implements the paper's future-work setting ("a public
// cloud where multiple VMs share CPU resources") as a synthetic
// workload.
type ChurnConfig struct {
	// Cores is the set of cores tenants may land on.
	Cores []int
	// ArrivalsPerSecond is the Poisson arrival rate (default 0.5).
	ArrivalsPerSecond float64
	// MeanDuration is the mean tenant residence time in seconds
	// (default 2).
	MeanDuration float64
	// Weight is the OS scheduling weight of tenant threads (default 1).
	Weight float64
	// MaxConcurrent bounds live tenants (default: half the cores,
	// minimum 1); arrivals beyond the bound are dropped, as a cloud
	// scheduler would place them elsewhere.
	MaxConcurrent int
	// Seed drives the arrival process.
	Seed int64
	// Trace, when non-nil, records tenant activity.
	Trace *trace.Recorder
}

// Churn is a running tenant-churn generator.
type Churn struct {
	cfg  ChurnConfig
	mach *machine.Machine
	rng  *rand.Rand

	live     int
	arrivals int
	dropped  int
	nextID   int
}

// StartChurn begins generating tenant interference on the machine.
func StartChurn(m *machine.Machine, cfg ChurnConfig) *Churn {
	if len(cfg.Cores) == 0 {
		panic("interfere: churn needs cores")
	}
	if cfg.ArrivalsPerSecond <= 0 {
		cfg.ArrivalsPerSecond = 0.5
	}
	if cfg.MeanDuration <= 0 {
		cfg.MeanDuration = 2
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = len(cfg.Cores) / 2
		if cfg.MaxConcurrent < 1 {
			cfg.MaxConcurrent = 1
		}
	}
	c := &Churn{
		cfg:  cfg,
		mach: m,
		rng:  rand.New(rand.NewSource(cfg.Seed*7919 + 17)),
	}
	c.scheduleNext()
	return c
}

func (c *Churn) scheduleNext() {
	// Arrivals pick a random core, so the chain runs in coordinator
	// context (global events): the rng draws and placements happen in one
	// deterministic sequence however many shards execute the resulting
	// hogs.
	gap := sim.Time(c.rng.ExpFloat64() / c.cfg.ArrivalsPerSecond)
	c.mach.Shards().GlobalAfter(gap, func() {
		c.arrive(c.mach.Shards().Now())
		c.scheduleNext()
	})
}

func (c *Churn) arrive(now sim.Time) {
	if c.live >= c.cfg.MaxConcurrent {
		c.dropped++
		return
	}
	c.live++
	c.arrivals++
	c.nextID++
	core := c.cfg.Cores[c.rng.Intn(len(c.cfg.Cores))]
	dur := sim.Time(c.rng.ExpFloat64() * c.cfg.MeanDuration)
	if dur < 0.05 {
		dur = 0.05
	}
	StartHog(c.mach, HogConfig{
		Core:   core,
		Start:  now,
		Stop:   now + dur,
		Weight: c.cfg.Weight,
		Trace:  c.cfg.Trace,
		Name:   fmt.Sprintf("tenant-%d@%d", c.nextID, core),
	})
	c.mach.Shards().GlobalAt(now+dur, func() { c.live-- })
}

// Arrivals reports how many tenants were admitted so far.
func (c *Churn) Arrivals() int { return c.arrivals }

// Dropped reports how many arrivals were rejected by the concurrency
// bound.
func (c *Churn) Dropped() int { return c.dropped }

// Live reports the current number of resident tenants.
func (c *Churn) Live() int { return c.live }
