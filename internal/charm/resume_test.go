package charm

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"cloudlb/internal/core"
	"cloudlb/internal/lb"
	"cloudlb/internal/machine"
	"cloudlb/internal/metrics"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
	"cloudlb/internal/xnet"
)

// shardedLBRun is one imbalanced run on 4 nodes x 4 cores at the given
// shard count: 64 iterChares syncing every 10 of 40 iterations, with a
// hog on core 3, under one protocol. It returns the run's account (finish
// time, steps, migrations, LBWallTime, every chare's PE, the metrics
// snapshot less its partition- and host-dependent series and its rows'
// host-time strategy_wall, and the trace hash) and, per LB step, whether the coordinator ran parallel windows
// while a PE still waited for that step's resume.
func shardedLBRun(t *testing.T, shards int, strategy core.Strategy, hier bool) (string, []bool) {
	t.Helper()
	netCfg := xnet.DefaultConfig()
	sh := sim.NewShards(shards, sim.Time(netCfg.MinInterNodeLatency(4)))
	defer sh.Close()
	m := machine.NewSharded(sh, machine.Config{Nodes: 4, CoresPerNode: 4, CoreSpeed: 1})
	h := m.NewThread("hog", m.Core(3), 1)
	var loop func()
	loop = func() { h.Run(0.5, loop) }
	loop()
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder()
	rec.SetConcurrent(shards > 1)
	r := NewRTS(Config{
		Machine: m, Net: xnet.New(m, netCfg), Cores: allCores(m),
		Strategy: strategy, HierarchicalLB: hier, Metrics: reg, Trace: rec,
	})
	r.NewArray("w", 64, func(int) Chare { return &iterChare{iters: 40, cost: 0.005, syncEvery: 10} })

	var parallel []bool // per step: a barrier saw !Sequential() with a PE awaiting resume
	r.onLBStep = func() {
		if err := checkChares(r, true); err != nil {
			t.Errorf("%d shards, after LB step %d: %v", shards, r.LBSteps(), err)
		}
		parallel = append(parallel, false)
	}
	// Barrier hooks run on the coordinator with no window in flight, so
	// they may read every PE. The demand the run holds is exactly the PEs'
	// held units: none is left behind by a step that has ended.
	sh.OnBarrier(func() {
		held, awaiting := false, false
		for _, p := range r.pes {
			held = held || p.seqHeld
			awaiting = awaiting || p.inSync && !p.seqHeld
		}
		if held != sh.Sequential() {
			t.Errorf("%d shards at t=%v: Sequential() = %v with PE units held = %v", shards, sh.Now(), sh.Sequential(), held)
		}
		if awaiting && !sh.Sequential() && len(parallel) > 0 {
			parallel[len(parallel)-1] = true
		}
	})
	r.Start()
	for !r.Finished() && sh.Now() < 300 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Finished() {
		t.Fatalf("%d shards: run did not finish by t=300", shards)
	}
	if r.Migrations() == 0 {
		t.Fatalf("%d shards: nothing migrated; the LB steps prove nothing", shards)
	}
	snap := reg.Gather()
	kept := snap.Series[:0]
	for _, s := range snap.Series {
		// Envelope pool hits depend on the partition and the strategy's
		// planning wall on the host; everything else must match.
		if s.Name != "charm_messages_pooled_total" && s.Name != "charm_lb_strategy_wall_seconds_total" {
			kept = append(kept, s)
		}
	}
	snap.Series = kept
	for i := range snap.LBSteps {
		snap.LBSteps[i].StrategyWall = 0
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]int, 64)
	for i := range locs {
		locs[i] = r.Location(ChareID{Array: "w", Index: i})
	}
	return fmt.Sprintf("finish=%v steps=%d migrations=%d lbwall=%v locs=%v metrics=%x trace=%x",
		r.FinishTime(), r.LBSteps(), r.Migrations(), r.LBWallTime(), locs,
		sha256.Sum256(js), sha256.Sum256([]byte(fmt.Sprint(rec.Segments())))), parallel
}

// TestResumeWaveRunsInParallelWindows checks the LB step's demand
// lifecycle at two and four shards under each protocol: from onLBStep on,
// the coordinator runs parallel windows while PEs still await the resume,
// the run's demand always equals the PEs' held units, and the run's
// account, LBWallTime's per-PE sums included, equals the one-shard run's.
func TestResumeWaveRunsInParallelWindows(t *testing.T) {
	// The three AtSync protocols: the flat gather at PE 0, the tree gather
	// and DiffusionLB's neighbor rounds.
	for _, proto := range []struct {
		name     string
		strategy func() core.Strategy
		hier     bool
	}{
		{"flat", func() core.Strategy { return lb.GreedyLB{} }, false},
		{"tree", func() core.Strategy { return lb.GreedyLB{} }, true},
		{"diffusion", func() core.Strategy { return &lb.DiffusionLB{} }, false},
	} {
		t.Run(proto.name, func(t *testing.T) {
			one, _ := shardedLBRun(t, 1, proto.strategy(), proto.hier)
			for _, shards := range []int{2, 4} {
				got, parallel := shardedLBRun(t, shards, proto.strategy(), proto.hier)
				if got != one {
					t.Errorf("%d shards differ from one:\n got %s\nwant %s", shards, got, one)
				}
				if len(parallel) != 3 {
					t.Fatalf("%d shards: %d LB steps, want 3", shards, len(parallel))
				}
				for i, ok := range parallel {
					if !ok {
						t.Errorf("%d shards, step %d: no parallel window while a PE awaited its resume", shards, i+1)
					}
				}
			}
		})
	}
}
