// Command timeline renders per-core execution timelines (the Projections
// view of the paper's Figures 1 and 3) for a Wave2D run under dynamic
// interference, as ASCII and optionally SVG. The run is the evaluation's
// 4-core Wave2D scenario (experiment.Spec, LB every 5 iterations) with two
// hogs, vm-a on core 1 and vm-b on core 3, executed by experiment.Run
// through a one-worker runner.Pool like every other scenario.
//
// Usage:
//
//	timeline                         # Figure 3-style run, ASCII phases
//	timeline -strategy none          # Figure 1-style: watch imbalance persist
//	timeline -scale 0.3 -lbsteps     # a shorter run and its per-LB-step table
//	timeline -svg out.svg            # also write the full SVG timeline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/interfere"
	"cloudlb/internal/metrics"
	"cloudlb/internal/obs"
	"cloudlb/internal/profiling"
	"cloudlb/internal/projections"
	"cloudlb/internal/runner"
	"cloudlb/internal/sim"
	"cloudlb/internal/trace"
)

// normalize maps an imbalance series (>=1 when active) to [0,1] for
// sparkline rendering: 1.0 (balanced) maps to 0, numCores maps to 1.
func normalize(series []float64) []float64 {
	out := make([]float64, len(series))
	for i, v := range series {
		if v <= 1 {
			out[i] = 0
			continue
		}
		out[i] = (v - 1) / 3 // 4 cores: worst case max/mean = 4
	}
	return out
}

func main() {
	strategy := flag.String("strategy", "refine", "load balancer, as lbsim's -strategy (refine, none, greedy, ...)")
	scale := flag.Float64("scale", 1.0, "iteration-count scale factor (1.0 = 200 Wave2D iterations)")
	width := flag.Int("width", 100, "ASCII timeline width")
	profile := flag.Bool("profile", false, "also print the Projections-style analysis (time profile, imbalance, top chares)")
	svgPath := flag.String("svg", "", "write an SVG timeline to this path")
	chromePath := flag.String("chrome", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this path")
	hog1 := flag.Float64("hog1", 1.0, "start of the core-1 interfering job (s)")
	hog1stop := flag.Float64("hog1stop", 3.0, "time the core-1 job leaves its core (s); must be after -hog1")
	hog2 := flag.Float64("hog2", 4.5, "start of the core-3 interfering job (s)")
	hog2stop := flag.Float64("hog2stop", 6.5, "time the core-3 job leaves its core (s); must be after -hog2")
	lbSteps := flag.Bool("lbsteps", false, "print the per-LB-step table (moves, strategy wall time, per-PE load before/after)")
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(1)
	}

	stratKind, err := experiment.ParseStrategyKind(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(2)
	}
	sp := experiment.Spec{
		App: experiment.Wave2D, Cores: []int{4},
		Strategies: []experiment.StrategyKind{stratKind},
		Scale:      *scale, SyncEvery: 5,
	}
	// The Spec.Validate gate lbsim and the service use, plus the hog
	// windows, which no Spec field carries.
	var fields []experiment.FieldError
	var verr *experiment.ValidationError
	if errors.As(sp.Validate(), &verr) {
		fields = verr.Fields
	}
	for _, h := range []struct {
		flag string
		v    float64
	}{{"hog1", *hog1}, {"hog1stop", *hog1stop}, {"hog2", *hog2}, {"hog2stop", *hog2stop}} {
		if !(h.v >= 0) || math.IsInf(h.v, 1) {
			fields = append(fields, experiment.FieldError{
				Field: h.flag, Msg: fmt.Sprintf("must be finite and >= 0 (seconds), got %v", h.v)})
		}
	}
	// A hog whose stop is not after its start would never leave its core
	// (interfere.HogConfig's "run forever"), which no flag asks for.
	for _, h := range []struct {
		flag        string
		start, stop float64
	}{{"hog1stop", *hog1, *hog1stop}, {"hog2stop", *hog2, *hog2stop}} {
		if h.stop <= h.start {
			fields = append(fields, experiment.FieldError{
				Field: h.flag, Msg: fmt.Sprintf("must be after the job's start (%v s), got %v", h.start, h.stop)})
		}
	}
	if len(fields) > 0 {
		for _, fe := range fields {
			fmt.Fprintf(os.Stderr, "timeline: %s: %s\n", fe.Field, fe.Msg)
		}
		os.Exit(2)
	}

	rec := trace.NewRecorder()
	// The registry's LB-step log feeds both the -lbsteps table and the
	// -serve /api/v1/lbsteps endpoint; -lbsteps alone gets a registry of
	// its own.
	reg := prof.Registry()
	if reg == nil && *lbSteps {
		reg = metrics.NewRegistry()
	}
	s := sp.Scenarios()[0]
	s.Trace, s.Metrics = rec, reg
	s.Hogs = []interfere.HogConfig{
		{Core: 1, Start: sim.Time(*hog1), Stop: sim.Time(*hog1stop), Name: "vm-a"},
		{Core: 3, Start: sim.Time(*hog2), Stop: sim.Time(*hog2stop), Name: "vm-b"},
	}

	log, err := prof.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(2)
	}
	log.Info("timeline run starting", "strategy", *strategy, "scale", *scale)

	pool := &runner.Pool{Workers: 1, Metrics: prof.Registry(), OnProgress: prof.Progress}
	t0 := time.Now()
	results, err := pool.Executor()(context.Background(), []experiment.Scenario{s})
	if err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(1)
	}
	res := results[0]
	log.Info("timeline run complete", "wall_s", time.Since(t0).Seconds(),
		"events", res.Events, "migrations", res.Migrations, "lb_steps", res.LBSteps)
	finish := sim.Time(res.AppWall)
	fmt.Printf("Wave2D (%s) finished at %.2fs, %d migrations, %d LB steps\n\n",
		*strategy, res.AppWall, res.Migrations, res.LBSteps)

	cores := []int{0, 1, 2, 3}
	rec.RenderASCII(os.Stdout, cores, 0, finish, *width)

	if *lbSteps {
		fmt.Println("\nper-LB-step timeline:")
		steps, _ := reg.LBSteps(0)
		if err := metrics.WriteLBSteps(os.Stdout, steps); err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
	}

	if *profile {
		fmt.Println()
		projections.Profile(rec, cores, 0, finish, *width).Write(os.Stdout)
		fmt.Printf("imb  |%s|  (max/mean per-core task load; flat=balanced)\n",
			projections.Sparkline(normalize(projections.Imbalance(rec, cores, 0, finish, *width))))
		fmt.Println()
		fmt.Println("heaviest chares:")
		projections.WriteChareStats(os.Stdout, projections.ChareStats(rec), 10)
	}

	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
		if err := obs.WriteChrome(f, rec.ChromeEvents()); err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote %s\n", *chromePath)
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeline:", err)
			os.Exit(1)
		}
		rec.RenderSVG(f, cores, 0, finish, 1200)
		f.Close()
		fmt.Printf("\nwrote %s\n", *svgPath)
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "timeline:", err)
		os.Exit(1)
	}
}
