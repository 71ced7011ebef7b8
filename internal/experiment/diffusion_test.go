package experiment

import (
	"fmt"
	"testing"

	"cloudlb/internal/xnet"
)

// Experiment-level coverage for the distributed diffusion balancer. The
// protocol-level invariants (no task ever handed to an offline PE, round
// accounting, tree-reduction termination) are asserted in
// internal/charm/distlb_test.go; these tests pin the end-to-end
// contracts: the multi-round neighbor exchange must be bit-deterministic
// at every shard count, must terminate over a lossy interconnect, and
// must compose with core revocation.

// TestDiffusionShardedDeterminism extends the byte-identical-results
// contract to the distributed protocol: unlike the centralized gather,
// a diffusion LB step is hundreds of concurrent peer-to-peer messages
// criss-crossing shard boundaries, so any window-interleaving leak in
// the round or termination logic shows up here.
func TestDiffusionShardedDeterminism(t *testing.T) {
	diffusion := func(shards int) Scenario {
		s := detScenario(shards)
		s.Strategy = Diffusion
		return s
	}
	base := runOutcome(diffusion(1))
	if base.res.LBSteps == 0 || base.res.Migrations == 0 {
		t.Fatalf("reference diffusion run did no balancing (steps=%d migrations=%d); the matrix would prove nothing",
			base.res.LBSteps, base.res.Migrations)
	}
	for _, n := range []int{2, 4, 8} {
		diffOutcomes(t, fmt.Sprintf("shards=%d", n), runOutcome(diffusion(n)), base)
	}
}

// TestDiffusionLossyNetTerminates runs the diffusion protocol over a
// dropping interconnect. Every round of every LB step depends on
// neighbor summaries, task handoffs and reduction messages arriving;
// the reliable-with-retransmit transport must carry all of them, so the
// run finishes (Run returns at all), still balances, and actually
// exercised the loss path.
func TestDiffusionLossyNetTerminates(t *testing.T) {
	res := Run(Scenario{
		App: Wave2D, Cores: 32, Strategy: Diffusion, BG: BGWave2D,
		Seed: 7, Scale: 0.1,
		Net: xnet.Config{DropPct: 2, Seed: 9},
	})
	if res.NetDrops == 0 {
		t.Fatal("lossy diffusion run lost nothing; the test proved nothing")
	}
	if res.LBSteps == 0 || res.Migrations == 0 {
		t.Fatalf("diffusion did no balancing under drops (steps=%d migrations=%d)",
			res.LBSteps, res.Migrations)
	}
}

// TestDiffusionRevokedCoreEvacuates composes diffusion with the elastic
// fault schedule: the revoked core's chares must be force-evacuated
// (the planner sheds an offline PE's whole task list regardless of
// gradients), and the run must complete with balancing still active.
func TestDiffusionRevokedCoreEvacuates(t *testing.T) {
	res := Run(Scenario{
		App: Wave2D, Cores: 32, Strategy: Diffusion, Seed: 1, Scale: 0.1,
		Faults: Fig5Schedule(32, 0.1),
	})
	if res.Evacuations == 0 {
		t.Fatal("revoked core evacuated nothing under DiffusionLB")
	}
	base := Run(Scenario{App: Wave2D, Cores: 32, Strategy: Diffusion, Seed: 1, Scale: 0.1})
	if base.Evacuations != 0 {
		t.Fatalf("fault-free diffusion run reports %d evacuations", base.Evacuations)
	}
}
