package experiment

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cloudlb/internal/elastic"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// Size of TestShardCountInvariantOnRandomSpecs. The defaults keep it near
// five seconds; widen it with e.g.
//
//	go test -run TestShardCountInvariantOnRandomSpecs ./internal/experiment \
//	    -args -shardspec.cases=200 -shardspec.seed=7 -shardspec.maxdrop=20
//
// and reach the cloud-scale allocations with -shardspec.maxcores=256.
var (
	shardSpecCases    = flag.Int("shardspec.cases", 10, "random Specs run at shards 1, 2 and 4")
	shardSpecSeed     = flag.Int64("shardspec.seed", 1, "seed of the random Spec generator")
	shardSpecMaxDrop  = flag.Float64("shardspec.maxdrop", 8, "largest inter-node drop percentage drawn")
	shardSpecMaxCores = flag.Int("shardspec.maxcores", 32, "largest core count drawn, from 8, 16, 32, 64, 128 and 256")
)

// shardSpecCloudChares is the over-decomposition of a drawn Spec above the
// 32-core testbed, low enough that a 256-core case stays small.
const shardSpecCloudChares = 4

// randomSpec draws one single-scenario Spec over every axis the scheduler
// could mishandle: application and allocation, every strategy, each kind
// of interference, the hierarchical gather, packet loss, a straggler node
// and one core revocation. It never combines features the runtime rejects
// by design: the tree gather with a distributed strategy or with
// elasticity, and a revocation with a co-located foreign thread (churn
// tenants may land on any core, the background job on the last two).
func randomSpec(rng *rand.Rand, maxDrop float64, maxCores int) Spec {
	var allocs []int
	for _, c := range []int{8, 16, 32, 64, 128, 256} {
		if c <= maxCores {
			allocs = append(allocs, c)
		}
	}
	cores := allocs[rng.Intn(len(allocs))]
	sp := Spec{
		App:        []AppKind{Jacobi2D, Wave2D, Mol3D}[rng.Intn(3)],
		Cores:      []int{cores},
		Strategies: []StrategyKind{StrategyKind(rng.Intn(int(Diffusion) + 1))},
		Seeds:      []int64{rng.Int63n(1000)},
		Scale:      0.02 + 0.04*rng.Float64(),
		BG:         BGKind(rng.Intn(3)),
		Net:        xnet.Config{DropPct: maxDrop * rng.Float64(), Seed: rng.Int63n(1000)},
	}
	if cores > testbedCores {
		sp.CharesPerCore = shardSpecCloudChares
	}
	if rng.Intn(2) == 0 {
		sp.Net.StragglerNodes = []int{rng.Intn(clusterNodes(cores))}
		sp.Net.StragglerFactor = 1 + 3*rng.Float64()
	}
	revocable := cores
	switch sp.BG {
	case BGWave2D:
		revocable = cores - 2
	case BGCloudChurn:
		revocable = 0
	}
	if revocable > 0 && rng.Intn(2) == 0 {
		r := elastic.Revocation{
			PE: rng.Intn(revocable), At: sim.Time(0.05 + 0.3*rng.Float64()),
			ReplacementCore: -1,
		}
		if rng.Intn(2) == 0 {
			r.Warning = 0.02
		}
		if rng.Intn(2) == 0 {
			r.Restore = r.At + 0.2
		}
		sp.Faults = elastic.Schedule{r}
	} else if sp.Strategies[0] != Diffusion {
		sp.Hierarchical = rng.Intn(2) == 0
	}
	return sp
}

// shardSpecRepro is a fixed row: the lbsim run
//
//	-app wave2d -cores 8 -strategy greedy -churn -hier -droppct 6
//	-straggle 1:3 -netseed 87 -seed 57 -scale 0.0798
//
// whose core 5 idle seconds once differed in the last bit between one
// shard and two: the one-shard meter stop settled every metered core at
// the finish instant, splitting a later idle addition in two.
var shardSpecRepro = Spec{
	App: Wave2D, Cores: []int{8}, Strategies: []StrategyKind{Greedy},
	Seeds: []int64{57}, Scale: 0.0798, BG: BGCloudChurn, Hierarchical: true,
	Net: xnet.Config{DropPct: 6, Seed: 87, StragglerNodes: []int{1}, StragglerFactor: 3},
}

// TestShardCountInvariantOnRandomSpecs runs seeded random Specs at one, two
// and four shards and requires the same Result, metric snapshot, LB-step
// rows and trace from each: sharding is a wall-clock optimization only.
// Each Spec's one-shard rows must also hold the step's invariants (see
// checkLBRows).
func TestShardCountInvariantOnRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(*shardSpecSeed))
	specs := []Spec{shardSpecRepro}
	for i := 0; i < *shardSpecCases; i++ {
		specs = append(specs, randomSpec(rng, *shardSpecMaxDrop, *shardSpecMaxCores))
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Fatalf("case %d: generator drew an invalid Spec: %v", i, err)
		}
		s := sp.Scenarios()[0]
		name := fmt.Sprintf("case %d (%v %dc %v bg=%d hier=%v drop=%.1f%% straggle=%v faults=%v)",
			i, s.App, s.Cores, s.Strategy, s.BG, s.Hierarchical, s.Net.DropPct, s.Net.StragglerNodes, s.Faults)
		base := runOutcome(s)
		checkLBRows(t, name, s.Strategy, base)
		for _, n := range []int{2, 4} {
			s.Shards = n
			diffOutcomes(t, fmt.Sprintf("%s shards=%d", name, n), runOutcome(s), base)
		}
	}
}

// checkLBRows checks a run's LB-step rows against its Result and each
// other: one row per LB step, the applied moves summing to the run's
// migrations and never exceeding the planned ones, load conserved by
// every step's moves (Σ pe_load_before = Σ pe_load_after, to 1e-9
// relative), and neighbor-exchange rounds under DiffusionLB alone.
func checkLBRows(t *testing.T, name string, strategy StrategyKind, o outcome) {
	t.Helper()
	if len(o.steps) != o.res.LBSteps {
		t.Errorf("%s: %d LB-step rows, Result has %d LB steps", name, len(o.steps), o.res.LBSteps)
	}
	applied := 0
	for _, s := range o.steps {
		applied += s.MovesApplied
		if s.MovesApplied > s.MovesPlanned {
			t.Errorf("%s: step %d applied %d of %d planned moves", name, s.Step, s.MovesApplied, s.MovesPlanned)
		}
		var before, after float64
		for pe := range s.PELoadBefore {
			before += s.PELoadBefore[pe]
			after += s.PELoadAfter[pe]
		}
		if math.Abs(before-after) > 1e-9*math.Abs(before) {
			t.Errorf("%s: step %d moved load from Σ %v to Σ %v", name, s.Step, before, after)
		}
		if (strategy == Diffusion) != (s.Rounds >= 1) {
			t.Errorf("%s: step %d ran %d rounds under %v", name, s.Step, s.Rounds, strategy)
		}
	}
	if applied != o.res.Migrations {
		t.Errorf("%s: rows apply %d moves, Result has %d migrations", name, applied, o.res.Migrations)
	}
}
