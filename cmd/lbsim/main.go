// Command lbsim runs load balancing scenarios on the simulated testbed
// and prints their measurements: wall time, background-job wall time,
// power, energy, migrations and LB steps.
//
// The flags describe one experiment.Spec, run as the "scenarios" method
// of Spec.RunMethod: in-process, or with -submit as a job on a scenario
// service. A single run prints the full measurement block; -runs N fans
// N seeds out over the scenario worker pool and prints one row per seed
// plus the mean, which is how the paper's 3-run averages are produced.
// -submit prints the same lines from the job's rows.json, then the job
// and its artifact URLs.
//
// Usage:
//
//	lbsim -app wave2d -cores 8 -strategy refine -bg -seed 1
//	lbsim -app mol3d -cores 16 -strategy greedy -bg -bgweight 4
//	lbsim -app jacobi2d -cores 4 -strategy none
//	lbsim -app wave2d -cores 8 -strategy refine -bg -runs 8 -parallel 4
//	lbsim -app wave2d -cores 8 -strategy refine -preempt 4:1.4:0.25:2.3:8
//	lbsim -app wave2d -cores 8 -strategy refine -bg -metrics -
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"cloudlb/internal/elastic"
	"cloudlb/internal/experiment"
	"cloudlb/internal/obs"
	"cloudlb/internal/profiling"
	"cloudlb/internal/runner"
	"cloudlb/internal/service"
	"cloudlb/internal/sim"
	"cloudlb/internal/stats"
	"cloudlb/internal/xnet"
)

// parsePreempt parses the -preempt flag: comma-separated
// pe:at:warning:restore:core revocations (times in simulated seconds).
func parsePreempt(s string) (elastic.Schedule, error) {
	if s == "" {
		return nil, nil
	}
	var out elastic.Schedule
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 5 {
			return nil, fmt.Errorf("bad -preempt entry %q: want pe:at:warning:restore:core", part)
		}
		pe, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad -preempt PE %q", fields[0])
		}
		var times [3]float64
		for i, name := range []string{"at", "warning", "restore"} {
			v, err := strconv.ParseFloat(fields[1+i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad -preempt %s %q", name, fields[1+i])
			}
			times[i] = v
		}
		core, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("bad -preempt core %q", fields[4])
		}
		out = append(out, elastic.Revocation{
			PE: pe, At: sim.Time(times[0]), Warning: sim.Duration(times[1]),
			Restore: sim.Time(times[2]), ReplacementCore: core,
		})
	}
	return out, nil
}

func main() {
	app := flag.String("app", "wave2d", "application: jacobi2d, wave2d, mol3d")
	cores := flag.Int("cores", 8, "cores to run on (multiple of 4; above 32 the cluster grows one node per 4 cores)")
	strategy := flag.String("strategy", "refine", "load balancer: none, refine, refineinternal, refineswap, greedy, threshold, costaware, diffusion")
	bg := flag.Bool("bg", false, "run the 2-core Wave2D background job on the last two cores")
	churn := flag.Bool("churn", false, "multi-tenant churn interference across all cores (instead of -bg)")
	bgWeight := flag.Float64("bgweight", 1, "OS scheduling weight of the background job")
	bgIters := flag.Int("bgiters", 0, "background job iterations (0 = default)")
	seed := flag.Int64("seed", 1, "random seed (cost jitter, particle layout, BG start offset)")
	runs := flag.Int("runs", 1, "number of seeds to run, starting at -seed")
	parallel := flag.Int("parallel", 0, "concurrent scenario workers (0 = GOMAXPROCS)")
	scale := flag.Float64("scale", 1.0, "iteration-count scale factor")
	chromePath := flag.String("chrome", "", "write a Chrome trace-event JSON of the run to this path (single run only)")
	spanPath := flag.String("trace-spans", "", "write a Chrome trace-event JSON of the run's host-time job spans (queue wait, per-scenario execution, LB steps, barrier stalls) to this path; merges the -chrome virtual-time trace when both are set")
	hier := flag.Bool("hier", false, "use the hierarchical (tree) LB gather instead of the flat gather")
	diffRounds := flag.Int("diffrounds", 0, "DiffusionLB: max neighbor-exchange rounds per LB step (0 = default 16)")
	diffTol := flag.Float64("difftol", 0, "DiffusionLB: convergence band as a fraction of the average load (0 = default 0.05)")
	shards := flag.String("shards", "0", "event-scheduler shards per run: 0 (or auto) = the pool decides, giving two shards to a run of 256 cores or more, without -metrics or -serve, when a worker would otherwise idle; 1 = one shard, a single event engine; N = parallel node shards (results are identical at any value)")
	preempt := flag.String("preempt", "", "core revocation schedule, comma-separated pe:at:warning:restore:core entries (restore 0 = never, core -1 = original core)")
	dropPct := flag.Float64("droppct", 0, "percentage of inter-node transmissions lost and retransmitted (0 = reliable network)")
	straggle := flag.String("straggle", "", "straggler nodes and slowdown factor, NODES:FACTOR (e.g. \"1,3:4\"): their links get latency x factor, bandwidth / factor")
	netSeed := flag.Int64("netseed", 0, "seed of the packet-drop lottery (deterministic per seed at any shard count)")
	submit := flag.String("submit", "", `submit the scenario to a running service instead of simulating in-process (server base URL, e.g. "http://127.0.0.1:8080"; start one with -serve and -store)`)
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}

	appKind, err := experiment.ParseAppKind(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	stratKind, err := experiment.ParseStrategyKind(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "lbsim: -runs must be at least 1")
		os.Exit(2)
	}
	if *chromePath != "" && *runs != 1 {
		fmt.Fprintln(os.Stderr, "lbsim: -chrome requires a single run")
		os.Exit(2)
	}

	nShards, err := experiment.ParseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}

	faults, err := parsePreempt(*preempt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}

	stragNodes, stragFactor, err := experiment.ParseStraggle(*straggle)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	netCfg := xnet.Config{DropPct: *dropPct, Seed: *netSeed}
	if len(stragNodes) > 0 {
		netCfg.StragglerNodes = stragNodes
		netCfg.StragglerFactor = stragFactor
	}

	seeds := make([]int64, *runs)
	for i := range seeds {
		seeds[i] = *seed + int64(i)
	}
	spec := experiment.Spec{
		App:          appKind,
		Cores:        []int{*cores},
		Strategies:   []experiment.StrategyKind{stratKind},
		Seeds:        seeds,
		BGWeight:     *bgWeight,
		BGIters:      *bgIters,
		Scale:        *scale,
		DiffRounds:   *diffRounds,
		DiffTol:      *diffTol,
		Hierarchical: *hier,
		Faults:       faults,
		Net:          netCfg,
		Shards:       nShards,
	}
	switch {
	case *bg && *churn:
		fmt.Fprintln(os.Stderr, "lbsim: -bg and -churn are mutually exclusive")
		os.Exit(2)
	case *bg:
		spec.BG = experiment.BGWave2D
	case *churn:
		spec.BG = experiment.BGCloudChurn
	}
	// One validation path for flags and HTTP submissions alike: the same
	// Spec.Validate that gates POST /api/v1/jobs gates the command line.
	if err := spec.Validate(); err != nil {
		var verr *experiment.ValidationError
		if errors.As(err, &verr) {
			for _, fe := range verr.Fields {
				fmt.Fprintf(os.Stderr, "lbsim: %s: %s\n", fe.Field, fe.Msg)
			}
		} else {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
		}
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *submit != "" {
		if err := submitRemote(ctx, *submit, spec, *chromePath); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		return
	}

	// -trace-spans (or -log) attaches a job trace to the in-process run:
	// the pool, scheduler, runtime and network record their host-time spans
	// on it exactly as they would for a service job.
	log, err := prof.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	var tr *obs.Trace
	if *spanPath != "" || log != nil {
		tr = obs.NewTrace("lbsim", log)
		ctx = obs.NewContext(ctx, tr)
	}
	log.Info("run starting", "trace_id", tr.ID(), "app", appKind.String(),
		"cores", *cores, "strategy", stratKind.String(), "runs", *runs, "shards", nShards)

	// The local run is the service's scenarios job, run in-process.
	pool := &runner.Pool{Workers: *parallel, Metrics: prof.Registry(), OnProgress: prof.Progress}
	exec := pool.Executor()
	if *chromePath == "" {
		// The method records a single run's timeline for trace.json.
		// Nothing reads it without -chrome, and on a large allocation
		// recording it costs more than the simulation.
		exec = func(ctx context.Context, batch []experiment.Scenario) ([]experiment.Result, error) {
			for i := range batch {
				batch[i].Trace = nil
			}
			return pool.Executor()(ctx, batch)
		}
	}
	out, err := spec.RunMethod(ctx, "scenarios", experiment.Options{Executor: exec, Metrics: prof.Registry()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
	total, wall := pool.Totals()
	log.Info("run complete", "trace_id", tr.ID(),
		"events", total.Events, "wall_s", wall.Seconds(), "spans", len(tr.Spans()))

	printRows(spec, out.Rows.([]experiment.ScenarioRow))
	fmt.Fprintf(os.Stderr, "lbsim: %d simulated events in %.3fs wall-clock (%.3gM events/s, %d workers)\n",
		total.Events, wall.Seconds(), float64(total.Events)/wall.Seconds()/1e6, pool.WorkerCount())

	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		if err := obs.WriteChrome(f, out.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("trace:          %s\n", *chromePath)
	}

	if *spanPath != "" {
		spans, err := tr.ChromeJSON(out.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*spanPath, spans, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace spans:    %s (%d spans)\n", *spanPath, len(tr.Spans()))
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}

// printRows renders the scenarios method's rows for the Spec lbsim
// assembled from its flags: the measurement block of a single run, or a
// row per seed and the mean wall time for -runs N. A local run and a
// -submit job print the same lines from the same rows.
func printRows(sp experiment.Spec, rows []experiment.ScenarioRow) {
	seed := sp.Seeds[0]
	if len(rows) == 1 {
		r := rows[0]
		fmt.Printf("app:            %v on %d cores, strategy %v, seed %d\n", sp.App, sp.Cores[0], sp.Strategies[0], seed)
		fmt.Printf("wall time:      %.3f s\n", r.AppWall)
		if !math.IsNaN(float64(r.BGWall)) {
			fmt.Printf("bg wall time:   %.3f s (weight %.1f)\n", r.BGWall, sp.BGWeight)
		}
		fmt.Printf("avg power:      %.1f W over the application's nodes\n", r.AvgPowerW)
		fmt.Printf("energy:         %.1f J\n", r.EnergyJ)
		fmt.Printf("LB steps:       %d\n", r.LBSteps)
		fmt.Printf("migrations:     %d\n", r.Migrations)
		if !sp.Net.IsZero() {
			fmt.Printf("net drops:      %d (%d retransmits, drop %.3g%%, seed %d)\n",
				r.NetDrops, r.NetRetransmits, sp.Net.DropPct, sp.Net.Seed)
		}
		if len(sp.Faults) > 0 {
			fmt.Printf("evacuations:    %d (schedule of %d revocations)\n", r.Evacuations, len(sp.Faults))
		}
		return
	}
	fmt.Printf("app: %v on %d cores, strategy %v, seeds %d..%d\n",
		sp.App, sp.Cores[0], sp.Strategies[0], seed, seed+int64(len(rows))-1)
	tab := stats.NewTable("seed", "wall s", "bg wall s", "power W", "energy J", "migrations")
	var walls []float64
	for i, r := range rows {
		tab.AddRow(seed+int64(i), float64(r.AppWall), float64(r.BGWall), r.AvgPowerW, r.EnergyJ, r.Migrations)
		walls = append(walls, float64(r.AppWall))
	}
	tab.Write(os.Stdout)
	fmt.Printf("mean wall time: %.3f s over %d seeds\n", stats.Mean(walls), len(rows))
}

// submitRemote sends the assembled Spec to a scenario service as a
// scenarios job, prints its rows as a local run would, then the job and
// its artifacts. A repeat submission of the same Spec is served from the
// server's content-addressed cache without simulating.
func submitRemote(ctx context.Context, base string, spec experiment.Spec, chromePath string) error {
	client := &service.Client{BaseURL: base}
	view, err := client.Run(ctx, service.Request{Method: "scenarios", Spec: spec})
	if err != nil {
		return err
	}
	if view.State == service.StateFailed {
		return fmt.Errorf("remote job %s failed: %s", view.ID, view.Error)
	}
	art, ok := view.Artifacts["rows.json"]
	if !ok {
		return fmt.Errorf("remote job %s has no rows.json", view.ID)
	}
	b, err := client.Artifact(ctx, art)
	if err != nil {
		return err
	}
	var rows []experiment.ScenarioRow
	if err := json.Unmarshal(b, &rows); err != nil {
		return fmt.Errorf("remote job %s rows.json: %w", view.ID, err)
	}
	printRows(spec, rows)
	source := "computed"
	if view.Cached {
		source = "cache hit"
	}
	fmt.Printf("job:            %s on %s (%s, spec %s)\n", view.ID, base, source, view.SpecHash[:12])
	names := make([]string, 0, len(view.Artifacts))
	for name := range view.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		art := view.Artifacts[name]
		fmt.Printf("artifact:       %-12s %s%s (%d bytes)\n", name, strings.TrimRight(base, "/"), art.URL, art.Size)
	}
	if chromePath != "" {
		art, ok := view.Artifacts["trace.json"]
		if !ok {
			return fmt.Errorf("remote job recorded no trace (traces need a single-scenario batch)")
		}
		b, err := client.Artifact(ctx, art)
		if err != nil {
			return err
		}
		if err := os.WriteFile(chromePath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("trace:          %s\n", chromePath)
	}
	return nil
}
