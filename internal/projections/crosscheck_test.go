package projections_test

import (
	"math"
	"testing"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/projections"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// These tests cross-check the two independent views of the same run the
// codebase produces: the Projections-style analysis (paper ref. [14])
// computed from trace.Recorder segments, and the runtime's own Eq. 1/
// Eq. 2 measurements recorded in the registry's LB-step log. Both observe
// the same simulated execution through different instruments — the recorder
// sees core occupancy, the load database sees per-task wall time — so
// their per-window task loads and imbalance metrics must agree. A
// divergence means one of the instruments is lying about the simulation.

const ccCores = 8

// runTraced executes one Wave2D scenario with both instruments attached.
func runTraced(t *testing.T, hier bool) (*trace.Recorder, []metrics.LBStep, float64) {
	t.Helper()
	rec := trace.NewRecorder()
	reg := metrics.NewRegistry()
	res := experiment.Run(experiment.Scenario{
		App: experiment.Wave2D, Cores: ccCores, Strategy: experiment.Refine,
		Seed: 1, Scale: 0.3, Hierarchical: hier,
		Trace: rec, Metrics: reg,
	})
	if math.IsNaN(res.AppWall) || res.AppWall <= 0 {
		t.Fatalf("scenario did not finish: wall %v", res.AppWall)
	}
	steps, _ := reg.LBSteps(0)
	if len(steps) == 0 {
		t.Fatal("LB-step log recorded no steps")
	}
	return rec, steps, res.AppWall
}

// stepWindow is the virtual-time interval a step's load measurements
// cover: WallSinceLB is T_lb, the time from the earliest PE's resume from
// the previous step (run start for the first step) to the step's Time,
// when the last measurement arrived.
func stepWindow(s metrics.LBStep) (from, to sim.Time) {
	return sim.Time(s.Time - s.WallSinceLB), sim.Time(s.Time)
}

// taskLoad is the step's per-PE task-only load: PELoadBefore carries
// measured task time plus background O_p, so subtracting PEBackground
// leaves what the recorder's KindTask segments should show.
func taskLoad(s metrics.LBStep) []float64 {
	out := make([]float64, len(s.PELoadBefore))
	for i, v := range s.PELoadBefore {
		out[i] = v - s.PEBackground[i]
	}
	return out
}

func coreList(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// crossCheck validates every LB step of one run against the recorder.
func crossCheck(t *testing.T, rec *trace.Recorder, steps []metrics.LBStep) {
	cores := coreList(ccCores)
	for _, step := range steps {
		from, to := stepWindow(step)
		window := float64(to - from)
		if window <= 0 {
			t.Fatalf("step %d: empty measurement window [%v, %v]", step.Step, from, to)
		}
		want := taskLoad(step)
		if len(want) != ccCores {
			t.Fatalf("step %d: %d PE loads, want %d", step.Step, len(want), ccCores)
		}

		// Bucketed time profile: the profile's mean task utilization over
		// the step's window, times window and core count, is total task
		// seconds — which must match the load database's total. Bucketing
		// only splits the interval, so no tolerance is lost to it.
		const buckets = 16
		prof := projections.Profile(rec, cores, from, to, buckets)
		var profTask float64
		for _, u := range prof.Task {
			profTask += u * float64(prof.Bucket) * float64(ccCores)
		}
		var dbTask float64
		for _, v := range want {
			dbTask += v
		}
		if dbTask <= 0 {
			t.Fatalf("step %d: load database saw no task time", step.Step)
		}
		if rel := math.Abs(profTask-dbTask) / dbTask; rel > 0.05 {
			t.Errorf("step %d: profile task seconds %.4f vs LB stats %.4f (rel %.3f)",
				step.Step, profTask, dbTask, rel)
		}

		// Imbalance metric: λ = max/mean over the whole window (one
		// bucket) must match λ computed from the per-PE loads.
		imb := projections.Imbalance(rec, cores, from, to, 1)
		if len(imb) != 1 {
			t.Fatalf("step %d: Imbalance returned %d buckets, want 1", step.Step, len(imb))
		}
		maxL, sumL := 0.0, 0.0
		for _, v := range want {
			sumL += v
			if v > maxL {
				maxL = v
			}
		}
		wantImb := maxL / (sumL / float64(ccCores))
		if math.Abs(imb[0]-wantImb) > 0.05*wantImb {
			t.Errorf("step %d: trace imbalance %.4f vs LB stats imbalance %.4f",
				step.Step, imb[0], wantImb)
		}
	}
}

func TestProfileAndImbalanceMatchLBTimelineFlat(t *testing.T) {
	rec, steps, _ := runTraced(t, false)
	crossCheck(t, rec, steps)
}

func TestProfileAndImbalanceMatchLBTimelineHierarchical(t *testing.T) {
	rec, steps, wall := runTraced(t, true)
	crossCheck(t, rec, steps)

	// The whole-run profile must stay inside physical bounds: mean
	// utilization in [0,1] and nonzero task activity somewhere.
	prof := projections.Profile(rec, coreList(ccCores), 0, sim.Time(wall), 40)
	var total float64
	for _, u := range prof.Task {
		if u < 0 || u > 1 {
			t.Fatalf("task utilization %v outside [0,1]", u)
		}
		total += u
	}
	if total <= 0 {
		t.Fatal("whole-run profile recorded no task activity")
	}
}
