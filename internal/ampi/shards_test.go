package ampi

import (
	"testing"

	"cloudlb/internal/charm"
	"cloudlb/internal/core"
	"cloudlb/internal/interfere"
	"cloudlb/internal/lb"
	"cloudlb/internal/machine"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// TestAllReduceAfterMigrateSyncAnyShardCount runs a ring that reduces
// right before every MigrateSync and again right after it resumes, under
// a hog that makes the balancer move ranks, at one and two shards, under
// the flat gather, the tree gather and DiffusionLB. A reduction counts
// contributions against per-subtree element memos; they must be
// recomputed from the placements the LB step left behind before the
// resume wave runs, in parallel windows, into the next reduction. A stale
// memo makes an AllReduce wait forever. Each rank's Wtime after its last
// exchange must also match: a rank reads its own PE's clock, not another
// shard's in the middle of a window.
func TestAllReduceAfterMigrateSyncAnyShardCount(t *testing.T) {
	refine := func() core.Strategy { return &core.RefineLB{EpsilonFrac: 0.05} }
	for _, tc := range []struct {
		name     string
		strategy func() core.Strategy
		hier     bool
	}{
		{"flat", refine, false},
		{"tree", refine, true},
		{"diffusion", func() core.Strategy { return &lb.DiffusionLB{} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one, oneWtime := allReduceRing(t, 1, tc.strategy(), tc.hier)
			two, twoWtime := allReduceRing(t, 2, tc.strategy(), tc.hier)
			if two != one {
				t.Errorf("finish at %v on two shards, %v on one", two, one)
			}
			for i := range oneWtime {
				if twoWtime[i] != oneWtime[i] {
					t.Errorf("rank %d: Wtime %v on two shards, %v on one", i, twoWtime[i], oneWtime[i])
				}
			}
		})
	}
}

// allReduceRing runs the ring on the given shard count and returns its
// finish time and each rank's Wtime after its last exchange.
func allReduceRing(t *testing.T, shards int, strategy core.Strategy, hier bool) (sim.Time, []float64) {
	t.Helper()
	netCfg := xnet.DefaultConfig()
	sh := sim.NewShards(shards, sim.Time(netCfg.MinInterNodeLatency(2)))
	defer sh.Close()
	m := machine.NewSharded(sh, machine.Config{Nodes: 2, CoresPerNode: 2, CoreSpeed: 1})
	rts := charm.NewRTS(charm.Config{
		Machine: m, Net: xnet.New(m, netCfg), Cores: []int{0, 1, 2, 3},
		Strategy: strategy, HierarchicalLB: hier,
	})
	interfere.StartHog(m, interfere.HogConfig{Core: 3, Start: 0.2})
	const ranks = 64
	wtime := make([]float64, ranks)
	New(rts, "ring", ranks, func(r *Rank) {
		left, right := (r.Rank()+ranks-1)%ranks, (r.Rank()+1)%ranks
		val := float64(r.Rank())
		for iter := 0; iter < 50; iter++ {
			r.Charge(0.002)
			r.Send(left, val, 4096)
			r.Send(right, val, 4096)
			val = (r.Recv(left).(float64) + r.Recv(right).(float64) + val) / 3
			if iter%10 == 9 {
				r.AllReduce(val, charm.ReduceMax)
				r.MigrateSync()
				val = r.AllReduce(val, charm.ReduceSum) / ranks
			}
		}
		wtime[r.Rank()] = r.Wtime()
	})
	rts.Start()
	for !rts.Finished() && sh.Now() < 200 {
		if err := sh.RunUntil(sh.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if !rts.Finished() {
		t.Fatalf("%d shards: ring did not finish by t=200", shards)
	}
	if rts.Migrations() == 0 {
		t.Fatalf("%d shards: no rank migrated; the LB steps prove nothing", shards)
	}
	return rts.FinishTime(), wtime
}
