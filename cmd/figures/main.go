// Command figures regenerates the data behind every figure of the paper
// "Cloud Friendly Load Balancing for HPC Applications: Preliminary Work"
// (ICPP 2012): ASCII timelines for Figures 1 and 3, and penalty /
// power / energy tables for Figures 2 and 4, plus the cloud extensions
// (Figures 5-7) and the strategy comparison and parameter sweep.
//
// Every table figure is a (method, Spec) pair evaluated through
// experiment.Spec.RunMethod, the same entry point POST /api/v1/jobs uses;
// -submit posts that pair to a scenario service instead.
//
// Usage:
//
//	figures -fig all
//	figures -fig 2b -cores 4,8,16,32 -seeds 3 -scale 1.0
//	figures -fig 3 -svg fig3.svg
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/obs"
	"cloudlb/internal/plot"
	"cloudlb/internal/profiling"
	"cloudlb/internal/runner"
	"cloudlb/internal/service"
	"cloudlb/internal/sim"
	"cloudlb/internal/xnet"
)

// tableFigure is one table figure as data: the header printed above it,
// the (method, Spec) pair that computes it, which of the method's tables
// it prints, and the file name its CSV (and bar chart) take under -csv
// (-plots).
type tableFigure struct {
	header string
	method string
	spec   experiment.Spec
	table  string
	file   string // "" writes no files
	chart  func(experiment.AppKind, []experiment.Eval) plot.BarChart
}

// tableFigures lists the table figures by -fig name. base carries the
// flags every figure shares (scale, network, shards); cores and seeds
// are the Figure 2/4 axes (seeds also drive Figures 5 and 6).
func tableFigures(base experiment.Spec, cores []int, seeds []int64) map[string][]tableFigure {
	spec := func(app experiment.AppKind, cores []int, seeds []int64) experiment.Spec {
		sp := base
		sp.App, sp.Cores, sp.Seeds = app, cores, seeds
		return sp
	}
	figs := map[string][]tableFigure{}
	for _, p := range []struct {
		panel string
		app   experiment.AppKind
	}{{"a", experiment.Jacobi2D}, {"b", experiment.Wave2D}, {"c", experiment.Mol3D}} {
		sp := spec(p.app, cores, seeds)
		name := strings.ToLower(p.app.String())
		fig2 := tableFigure{
			header: fmt.Sprintf("Figure 2 (%s): timing penalty vs cores\n", p.app),
			method: "evaluate", spec: sp, table: "table.csv", file: "fig2_" + name, chart: fig2Chart,
		}
		fig4 := tableFigure{
			header: fmt.Sprintf("Figure 4 (%s): power and normalized energy overhead\n", p.app),
			method: "evaluate", spec: sp, table: "energy.csv", file: "fig4_" + name, chart: fig4Chart,
		}
		figs["2"+p.panel] = []tableFigure{fig2}
		figs["4"+p.panel] = []tableFigure{fig4}
		figs["2"] = append(figs["2"], fig2)
		figs["4"] = append(figs["4"], fig4)
	}

	compare := spec(experiment.Wave2D, []int{8}, []int64{1})
	compare.Strategies = []experiment.StrategyKind{experiment.NoLB, experiment.Refine, experiment.RefineInternal,
		experiment.RefineSwap, experiment.Greedy, experiment.Threshold, experiment.CostAware}
	figs["compare"] = []tableFigure{{
		header: "Strategy comparison (Wave2D, 8 cores, interfered):\n",
		method: "compare", spec: compare, table: "table.csv",
	}}

	sweep := spec(experiment.Wave2D, []int{8}, []int64{1})
	sweep.EpsFracs, sweep.Periods = []float64{0.01, 0.02, 0.05, 0.1}, []int{5, 10, 20, 40}
	figs["sweep"] = []tableFigure{{
		header: "Sensitivity of RefineLB's design parameters (Wave2D, 8 cores):\n",
		method: "sweep", spec: sweep, table: "table.csv",
	}}

	// Extension beyond the paper: cloud elasticity. One spot revocation
	// with a short warning takes a core away mid-run and a replacement
	// arrives later; each strategy's penalty is measured against its own
	// fault-free baseline.
	const elasticCores = 8
	elastic := spec(experiment.Wave2D, []int{elasticCores}, seeds)
	elastic.Strategies = []experiment.StrategyKind{experiment.NoLB, experiment.Refine, experiment.RefineSwap}
	elastic.Faults = experiment.Fig5Schedule(elasticCores, base.Scale)
	r := elastic.Faults[0]
	figs["5"] = []tableFigure{{
		header: fmt.Sprintf("Figure 5: timing penalty of a spot revocation (Wave2D, %d cores)\n", elasticCores) +
			fmt.Sprintf("PE %d warned at t=%.3fs, core offline %.3f-%.3fs, replacement core %d\n",
				r.PE, float64(r.At-r.Warning), float64(r.At), float64(r.Restore), r.ReplacementCore),
		method: "elasticity", spec: elastic, table: "table.csv", file: "fig5_wave2d",
	}}

	// Extension beyond the paper: network interference, the cloud
	// counterpart of Figure 2's CPU interference. The interfered Fig. 2
	// workload runs a drop% x straggler sweep per strategy; penalties are
	// against the same strategy's run on the reliable uniform network, so
	// the added cost of the degraded network — including the balancer's
	// own migration traffic crossing it — is isolated from the
	// CPU-interference cost.
	const netCores = 8
	net := spec(experiment.Wave2D, []int{netCores}, seeds)
	net.Strategies = []experiment.StrategyKind{experiment.NoLB, experiment.Refine}
	net.DropPcts, net.StraggleFactors = []float64{0, 2, 10}, []float64{1, 16}
	figs["6"] = []tableFigure{{
		header: fmt.Sprintf("Figure 6: timing penalty of network interference (Wave2D, %d cores, interfered)\n", netCores) +
			"drop % x straggler sweep; the straggler is the allocation's last node, its links get latency x factor and bandwidth / factor\n",
		method: "net", spec: net, table: "table.csv", file: "fig6_wave2d",
	}}
	figs["net"] = figs["6"]
	return figs
}

// fig2Chart builds the grouped-bar version of a Figure 2 panel.
func fig2Chart(kind experiment.AppKind, evals []experiment.Eval) plot.BarChart {
	c := plot.BarChart{
		Title:  fmt.Sprintf("Figure 2: timing penalty, %s", kind),
		YLabel: "timing penalty %",
	}
	var noLB, lb, bgNo, bgLB []float64
	for _, e := range evals {
		c.Categories = append(c.Categories, strconv.Itoa(e.Cores))
		noLB = append(noLB, e.PenAppNoLB)
		lb = append(lb, e.PenAppLB)
		bgNo = append(bgNo, e.PenBGNoLB)
		bgLB = append(bgLB, e.PenBGLB)
	}
	c.Series = []plot.Series{
		{Name: "noLB", Values: noLB},
		{Name: "LB", Values: lb},
		{Name: "BG noLB", Values: bgNo},
		{Name: "BG LB", Values: bgLB},
	}
	return c
}

// fig4Chart builds the grouped-bar version of a Figure 4 panel.
func fig4Chart(kind experiment.AppKind, evals []experiment.Eval) plot.BarChart {
	c := plot.BarChart{
		Title:  fmt.Sprintf("Figure 4: power (W) and energy overhead (%%), %s", kind),
		YLabel: "W / %",
	}
	var pNo, pLB, eNo, eLB []float64
	for _, e := range evals {
		c.Categories = append(c.Categories, strconv.Itoa(e.Cores))
		pNo = append(pNo, e.PowerNoLB)
		pLB = append(pLB, e.PowerLB)
		eNo = append(eNo, e.EnergyOvhNoLB)
		eLB = append(eLB, e.EnergyOvhLB)
	}
	c.Series = []plot.Series{
		{Name: "noLB power", Values: pNo},
		{Name: "LB power", Values: pLB},
		{Name: "noLB energy ovh", Values: eNo},
		{Name: "LB energy ovh", Values: eLB},
	}
	return c
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 2a, 2b, 2c, 3, 4a, 4b, 4c, 5, 6, 7, sweep, compare, all (5-7, the cloud extensions, are opt-in)")
	scale := flag.Float64("scale", 1.0, "iteration-count scale factor (smaller = faster)")
	seedN := flag.Int("seeds", 3, "number of seeds to average over (the paper uses 3 runs)")
	coresFlag := flag.String("cores", "4,8,16,32", "comma-separated core counts")
	svgPath := flag.String("svg", "", "also write an SVG timeline (figures 1 and 3)")
	csvDir := flag.String("csv", "", "also write per-panel CSV files (figures 2 and 4) into this directory")
	plotDir := flag.String("plots", "", "also write per-panel SVG bar charts (figures 2 and 4) into this directory")
	width := flag.Int("width", 100, "ASCII timeline width")
	parallel := flag.Int("parallel", 0, "concurrent scenario workers (0 = GOMAXPROCS); any value produces identical output")
	shardsFlag := flag.String("shards", "0", "event-scheduler shards per scenario: 0 (or auto) = the pool decides, giving two shards to a scenario of 256 cores or more, without -metrics or -serve, when a worker would otherwise idle; 1 = one shard, a single event engine; N = parallel node shards; any value produces identical output")
	dropPct := flag.Float64("droppct", 0, "percentage of inter-node transmissions lost and retransmitted in every scenario (0 = reliable; figure 6 sweeps its own drop axis)")
	straggle := flag.String("straggle", "", "straggler nodes and slowdown factor, NODES:FACTOR (e.g. \"1,3:4\"), applied to every scenario")
	netSeed := flag.Int64("netseed", 0, "seed of the packet-drop lottery")
	submit := flag.String("submit", "", `evaluate the table figures on a running scenario service instead of in-process (server base URL; start one with -serve and -store); figures 1, 3 and 7 still render locally`)
	prof := profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		die(err)
	}
	cores, err := parseCores(*coresFlag)
	if err != nil {
		usage(err)
	}
	shards, err := experiment.ParseShards(*shardsFlag)
	if err != nil {
		usage(err)
	}
	stragNodes, stragFactor, err := experiment.ParseStraggle(*straggle)
	if err != nil {
		usage(err)
	}
	base := experiment.Spec{Scale: *scale, Shards: shards, Net: xnet.Config{DropPct: *dropPct, Seed: *netSeed}}
	if len(stragNodes) > 0 {
		base.Net.StragglerNodes = stragNodes
		base.Net.StragglerFactor = stragFactor
	}
	seeds := make([]int64, *seedN)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	tables := tableFigures(base, cores, seeds)

	// All scenario batches fan out over one pool; Ctrl-C cancels the batch
	// in flight. The figure text on stdout is byte-identical at any worker
	// count (results are slotted by batch index), so the committed results/
	// tree regenerates exactly regardless of -parallel.
	// Metrics (when enabled) ride along on every scenario via Options;
	// they accumulate across figures into one registry written on exit and
	// never touch stdout, so the oracle stays byte-identical either way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// -log attaches a run trace to the context so every figure's batches
	// record their spans (and WARN-level anomalies) against one trace ID.
	log, err := prof.Logger()
	if err != nil {
		usage(err)
	}
	if log != nil {
		tr := obs.NewTrace("figures", log)
		ctx = obs.NewContext(ctx, tr)
		log.Info("figures run starting", "trace_id", tr.ID(), "fig", *fig, "seeds", *seedN)
	}
	pool := &runner.Pool{Workers: *parallel, Metrics: prof.Registry(), OnProgress: prof.Progress}
	run := &figureRun{
		ctx:     ctx,
		opts:    experiment.Options{Executor: pool.Executor(), Metrics: prof.Registry(), LBTimeline: prof.Timeline()},
		csvDir:  *csvDir,
		plotDir: *plotDir,
	}
	if *submit != "" {
		if *csvDir != "" || *plotDir != "" || *svgPath != "" {
			usage(fmt.Errorf("-submit prints the server's CSV artifact to stdout; -csv/-plots/-svg need local evaluation"))
		}
		run.client = &service.Client{BaseURL: *submit}
	}
	start := time.Now()

	names := []string{*fig}
	if *fig == "all" {
		names = []string{"1", "2a", "2b", "2c", "3", "4a", "4b", "4c", "sweep", "compare"}
	}
	// One validation gate for every Spec, before the first scenario runs:
	// the Spec.Validate that gates lbsim's flags and POST /api/v1/jobs.
	for _, f := range names {
		switch f {
		case "1":
			validate(experiment.Fig1Spec(base))
		case "3":
			validate(experiment.Fig3Spec(base))
		case "7", "diffusion":
			validate(experiment.Fig7Spec(base))
		default:
			figs, ok := tables[f]
			if !ok {
				usage(fmt.Errorf("unknown figure %q", f))
			}
			for _, tf := range figs {
				validate(tf.spec)
			}
		}
	}
	for _, f := range names {
		switch f {
		case "1":
			run.fig1(base, *width, *svgPath)
		case "3":
			run.fig3(base, *width, *svgPath)
		case "7", "diffusion":
			run.fig7(base)
		default:
			for _, tf := range tables[f] {
				run.table(tf)
			}
		}
	}

	// Perf summary on stderr: stdout is the byte-exact figure oracle and
	// must not change with worker count or host speed.
	total, wall := pool.Totals()
	if total.ScenariosDone > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d scenarios, %d simulated events in %.2fs total wall-clock (%.3gM events/s, %d workers)\n",
			total.ScenariosDone, total.Events, time.Since(start).Seconds(), float64(total.Events)/wall.Seconds()/1e6, pool.WorkerCount())
	}

	if err := stopProfiles(); err != nil {
		die(err)
	}
}

// die reports a runtime failure and exits 1.
func die(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// usage reports a bad invocation and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(2)
}

// validate exits 2 naming each offending field, one per line, when sp
// fails Spec.Validate.
func validate(sp experiment.Spec) {
	err := sp.Validate()
	var verr *experiment.ValidationError
	if errors.As(err, &verr) {
		for _, fe := range verr.Fields {
			fmt.Fprintf(os.Stderr, "figures: %s: %s\n", fe.Field, fe.Msg)
		}
		os.Exit(2)
	}
	if err != nil {
		usage(err)
	}
}

// figureRun renders figures against one evaluation context: in-process
// through the pool-backed Options, or on a scenario service when client
// is set.
type figureRun struct {
	ctx             context.Context
	opts            experiment.Options
	client          *service.Client
	csvDir, plotDir string
}

// table prints one table figure. Locally it runs the figure's method and
// writes the chart and CSV files; with -submit it posts the same
// (method, Spec) pair, awaits the job (a repeat is a cache hit served
// without simulating) and prints the named CSV artifact instead.
func (r *figureRun) table(f tableFigure) {
	fmt.Print(f.header)
	if r.client != nil {
		r.remote(f)
		fmt.Println()
		return
	}
	out, err := f.spec.RunMethod(r.ctx, f.method, r.opts)
	if err != nil {
		die(err)
	}
	tab := out.Tables[f.table]
	tab.Write(os.Stdout)
	if f.chart != nil && r.plotDir != "" {
		chart := f.chart(f.spec.App, out.Rows.([]experiment.Eval))
		writeFile(filepath.Join(r.plotDir, f.file+".svg"), chart.Render)
	}
	if f.file != "" && r.csvDir != "" {
		writeFile(filepath.Join(r.csvDir, f.file+".csv"), tab.WriteCSV)
	}
	fmt.Println()
}

func (r *figureRun) remote(f tableFigure) {
	view, err := r.client.Run(r.ctx, service.Request{Method: f.method, Spec: f.spec})
	if err != nil {
		die(err)
	}
	if view.State == service.StateFailed {
		die(fmt.Errorf("remote job %s failed: %s", view.ID, view.Error))
	}
	source := "computed"
	if view.Cached {
		source = "cache hit"
	}
	art, ok := view.Artifacts[f.table]
	if !ok {
		die(fmt.Errorf("remote job %s has no %s artifact", view.ID, f.table))
	}
	b, err := r.client.Artifact(r.ctx, art)
	if err != nil {
		die(err)
	}
	os.Stdout.Write(b)
	fmt.Fprintf(os.Stderr, "figures: job %s (%s): %s is %s%s\n",
		view.ID, source, f.table, strings.TrimRight(r.client.BaseURL, "/"), art.URL)
}

// fig7 renders the cloud-scale comparison, an extension beyond the
// paper: the interfered Wave2D workload at 1024 cores / ~100k chares,
// DiffusionLB's distributed neighbor-exchange protocol against the
// centralized refiners (flat and tree gather). It always runs locally:
// the table is deterministic, but the host-time planning cost — the
// number the distributed protocol exists to shrink — is machine-dependent
// and goes to stderr.
func (r *figureRun) fig7(sp experiment.Spec) {
	fmt.Println("Figure 7: load balancing at cloud scale (Wave2D, 1024 cores, ~100k chares, interfered)")
	fmt.Println("distributed diffusion vs centralized refinement; peak state B is the largest per-PE LB planning state")
	evals, err := experiment.Fig7(r.ctx, r.opts, sp)
	if err != nil {
		die(err)
	}
	tab := experiment.Fig7Table(evals)
	tab.Write(os.Stdout)
	if r.csvDir != "" {
		writeFile(filepath.Join(r.csvDir, "fig7_wave2d.csv"), tab.WriteCSV)
	}
	for _, e := range evals {
		fmt.Fprintf(os.Stderr, "figures: fig7 %-14s Strategy.Plan host time %.3fs\n", e.Label, e.PlanHostSeconds)
	}
	fmt.Println()
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// timelineCores are the rows of the Figure 1 and 3 timelines: the 4
// cores of the run's one node.
var timelineCores = []int{0, 1, 2, 3}

func (r *figureRun) fig1(sp experiment.Spec, width int, svgPath string) {
	s, res, err := experiment.Fig1(r.ctx, r.opts, sp)
	if err != nil {
		die(err)
	}
	hogStart, finish := s.Hogs[0].Start, sim.Time(res.AppWall)
	fmt.Println("Figure 1: background task disturbing load balance (Wave2D, 4 cores, no LB)")
	fmt.Printf("1-core background job starts at t=%.3fs on core 3; run finishes at t=%.3fs\n",
		float64(hogStart), res.AppWall)
	// Window (a): before interference. Window (b): after.
	span := (finish - hogStart) / 4
	fmt.Println("\n(a) no BG task:")
	s.Trace.RenderASCII(os.Stdout, timelineCores, hogStart-span, hogStart, width)
	fmt.Println("\n(b) core 3 overloaded:")
	s.Trace.RenderASCII(os.Stdout, timelineCores, hogStart, hogStart+span, width)
	if svgPath != "" {
		writeFile(svgPath, func(w io.Writer) error {
			s.Trace.RenderSVG(w, timelineCores, 0, finish, 1000)
			return nil
		})
	}
	fmt.Println()
}

func (r *figureRun) fig3(sp experiment.Spec, width int, svgPath string) {
	s, res, err := experiment.Fig3(r.ctx, r.opts, sp)
	if err != nil {
		die(err)
	}
	h1, h2 := s.Hogs[0], s.Hogs[1]
	fmt.Println("Figure 3: load balancer adapting to dynamic interference (Wave2D, 4 cores, RefineLB)")
	fmt.Printf("BG on core 1: %.2f-%.2fs; BG on core 3: %.2f-%.2fs; finish %.2fs; %d migrations\n",
		float64(h1.Start), float64(h1.Stop), float64(h2.Start), float64(h2.Stop),
		res.AppWall, res.Migrations)
	phases := []struct {
		label    string
		from, to sim.Time
	}{
		{"(a) core 1 overloaded", h1.Start, h1.Start + (h1.Stop-h1.Start)/3},
		{"(b) load balanced", h1.Stop - (h1.Stop-h1.Start)/3, h1.Stop},
		{"(c) no BG task", h1.Stop + (h2.Start-h1.Stop)/4, h2.Start - (h2.Start-h1.Stop)/4},
		{"(d) core 3 overloaded", h2.Start, h2.Start + (h2.Stop-h2.Start)/3},
		{"(e) load balanced", h2.Stop - (h2.Stop-h2.Start)/3, h2.Stop},
	}
	for _, p := range phases {
		fmt.Println("\n" + p.label + ":")
		s.Trace.RenderASCII(os.Stdout, timelineCores, p.from, p.to, width)
	}
	if svgPath != "" {
		writeFile(svgPath, func(w io.Writer) error {
			s.Trace.RenderSVG(w, timelineCores, 0, sim.Time(res.AppWall), 1200)
			return nil
		})
	}
	fmt.Println()
}

// writeFile creates path, fills it with write and reports it on stdout.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		die(err)
	}
	if err := write(f); err != nil {
		die(err)
	}
	if err := f.Close(); err != nil {
		die(err)
	}
	fmt.Printf("wrote %s\n", path)
}
