// Command bench is the repository's benchmark: four workloads that drive
// the simulator, the runtime, the balancers and the evaluation service
// through their public Go and HTTP APIs, with end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. README.md in this
// directory documents the workloads, the metrics and how to read them.
//
// Run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh --workload mol3d-32c --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare --base <dir> --head <dir>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any op failed its output check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cloudlb/internal/obs"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last fixture is the one measured.
const setupReps = 3

// runTimeout bounds one workload's run, so a hung op still ends the
// process well inside three minutes.
const runTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// options are the run flags.
type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	out         string
	chrome      string
	writeGolden string
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", `workload name, or "all" (`+strings.Join(workloadNames(), ", ")+`)`)
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write the run's record (raw samples, fingerprint) to this JSON file")
	fs.StringVar(&o.chrome, "chrome", "", "traced runs: write the run's spans as a Chrome trace to this file")
	fs.StringVar(&o.writeGolden, "write-golden", "", "merge this run's result digests into this golden file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, errors.New("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, errors.New("-trace must be 0 or 1")
	}
	if _, ok := findWorkload(o.workload); !ok && o.workload != "all" {
		return o, fmt.Errorf("unknown -workload %q", o.workload)
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func runMain(args []string, stdout io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout)
	}
	w, _ := findWorkload(o.workload)
	checks, err := newChecker()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	rec, bt, err := run(ctx, w, o, checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing record:", err)
			return 1
		}
	}
	if o.chrome != "" && bt != nil {
		b, err := bt.ChromeJSON(nil)
		if err == nil {
			err = os.WriteFile(o.chrome, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing Chrome trace:", err)
			return 1
		}
	}
	if o.writeGolden != "" {
		if err := checks.writeGolden(o.writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing golden:", err)
			return 1
		}
	}
	printRecord(stdout, rec)
	if !rec.Correct {
		for _, e := range rec.Errors {
			fmt.Fprintln(os.Stderr, "bench: check failed:", e)
		}
		return 1
	}
	return 0
}

// run sets the workload up setupReps times, measures the last fixture,
// and in a traced run adds the ladder and probes.
func run(ctx context.Context, w workload, o options, checks *checker) (*record, *obs.Trace, error) {
	e := &env{seed: o.seed, seconds: time.Duration(o.seconds) * time.Second, traced: o.trace == 1, checks: checks}
	if e.traced {
		e.bt = obs.NewTrace("bench "+w.name, nil)
	}
	rec := &record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: e.traced, Fingerprint: hostFingerprint()}

	var fx fixture
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		span := e.bt.Start(catBench, "setup", 0)
		t0 := time.Now()
		f, err := w.setup(ctx, e)
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		span.End("rep", rep)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		fx = f
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()
	m, err := fx.measure(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	cpu1 := readCPU()
	runtime.ReadMemStats(&ms1)
	rec.Samples = m.samples

	vals := map[string]float64{}
	var opLat, tracedLat, plainLat []float64
	var late, sends int
	var lateMax float64
	for _, s := range m.samples {
		if s.Kind == m.opKind {
			opLat = append(opLat, s.LatencyS)
			if s.Traced {
				tracedLat = append(tracedLat, s.LatencyS)
			} else {
				plainLat = append(plainLat, s.LatencyS)
			}
		}
		sends++
		if s.LateMS > float64(lateLimit)/1e6 {
			late++
		}
		lateMax = max(lateMax, s.LateMS)
	}
	vals["setup_s"] = median(rec.SetupS)
	vals["op_s"] = median(opLat)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, nil, fmt.Errorf("getrusage: %w", err)
	}
	vals["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	lateFrac := ratio(float64(late), float64(sends))
	rec.Valid = lateFrac <= maxLateFrac
	if !rec.Valid {
		fmt.Fprintf(os.Stderr, "bench: invalid run: %.2f%% of sends left more than %v late\n", 100*lateFrac, lateLimit)
	}

	if e.traced {
		for k, v := range m.layer {
			vals[k] = v
		}
		ops := float64(len(m.samples))
		vals["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / ops
		vals["runtime.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / ops
		vals["runtime.gc_cpu_frac"] = ratio(cpu1.gc-cpu0.gc, cpu1.total-cpu0.total)
		vals["obs.trace_overhead_frac"] = ratio(median(tracedLat), median(plainLat)) - 1
		vals["bench.late_frac"] = lateFrac
		vals["bench.late_max_ms"] = lateMax
		extra, err := fx.probe(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("%s probe: %w", w.name, err)
		}
		for k, v := range extra {
			vals[k] = v
		}
		if err := runLadder(e.bt, vals); err != nil {
			return nil, nil, err
		}
		rec.Metrics = project(perLayer, vals)
	} else {
		rec.Metrics = project(endToEnd, vals)
	}

	rec.Attempted, rec.Failed, rec.Errors = checks.counts()
	rec.Correct = rec.Failed == 0
	return rec, e.bt, nil
}

// cpuTimes are the runtime's cumulative CPU-time estimates.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// printRecord prints every metric by name with its unit, then the result
// line.
func printRecord(w io.Writer, rec *record) {
	table := endToEnd
	if rec.Traced {
		table = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v: %d ops, %d samples, setup reps %v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Attempted, len(rec.Samples), rec.SetupS)
	for _, m := range table {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.Name, rec.Metrics[m.Name].Value, m.Unit)
	}
	b, _ := json.Marshal(rec.result()) // plain data: cannot fail
	fmt.Fprintln(w, string(b))
}

// runAll runs every workload in a child process of its own, so one
// workload's heap and caches never carry into the next, and ends with a
// combined result line whose metric names are prefixed by workload.
func runAll(o options, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloads {
		child := []string{"--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace)}
		for flagName, path := range map[string]string{"--out": o.out, "--chrome": o.chrome, "--write-golden": o.writeGolden} {
			if path == "" {
				continue
			}
			if flagName != "--write-golden" {
				path = strings.TrimSuffix(path, ".json") + "." + w.name + ".json"
			}
			child = append(child, flagName, path)
		}
		var buf strings.Builder
		cmd := exec.Command(self, child...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	b, _ := json.Marshal(total) // plain data: cannot fail
	fmt.Fprintln(stdout, string(b))
	return code
}
