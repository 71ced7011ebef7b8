package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudlb/internal/metrics"
	"cloudlb/internal/service"
	"cloudlb/internal/service/store"
	"cloudlb/internal/telemetry"
)

// TestMain lets a test re-run the test binary as the lbsim command:
// with LBSIM_TEST_MAIN=1 set, the process runs main with its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("LBSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lbsim runs the command with args and returns its stdout, its stderr
// and its exit code.
func lbsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LBSIM_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// lbsimOK runs the command and fails the test unless it exits 0.
func lbsimOK(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, code := lbsim(t, args...)
	if code != 0 {
		t.Fatalf("lbsim %v exited %d\n%s%s", args, code, stdout, stderr)
	}
	return stdout
}

// TestRunsMetricsOneSeriesPerSeed exports -metrics from a single run and
// from a two-seed -runs batch. Each seed is its own scenario, so the
// batch must export one machine_core_busy_seconds series per seed for
// core 0 (a shared series would keep only the last writer's value),
// while the single run's export stays unlabeled.
func TestRunsMetricsOneSeriesPerSeed(t *testing.T) {
	core0 := regexp.MustCompile(`^machine_core_busy_seconds(\{[^}]*\}) `)
	for _, tc := range []struct {
		runs       string
		wantSeries []string
	}{
		{"1", []string{`{core="0"}`}},
		{"2", []string{`{core="0",scenario="0"}`, `{core="0",scenario="1"}`}},
	} {
		t.Run("runs="+tc.runs, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "metrics.prom")
			lbsimOK(t, "-app", "jacobi2d", "-cores", "4", "-strategy", "none",
				"-runs", tc.runs, "-parallel", "2", "-scale", "0.05", "-metrics", path)
			export, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.Split(string(export), "\n") {
				if m := core0.FindStringSubmatch(line); m != nil && strings.Contains(m[1], `core="0"`) {
					got = append(got, m[1])
				}
			}
			if strings.Join(got, " ") != strings.Join(tc.wantSeries, " ") {
				t.Fatalf("core 0 busy series %v, want %v", got, tc.wantSeries)
			}
		})
	}
}

// TestFlagsReachMetricsExport checks the flag → Spec → scenario →
// export wiring: each workload flag set must show up in the Prometheus
// export as the series its layer records, with the counters the flags
// switch on above zero.
func TestFlagsReachMetricsExport(t *testing.T) {
	base := []string{"-app", "wave2d", "-cores", "8", "-bg", "-scale", "0.1"}
	lossy := []string{"-strategy", "refine", "-droppct", "20", "-netseed", "7"}
	for _, tc := range []struct {
		name     string
		flags    []string
		series   []string
		positive []string
	}{
		{"refine", []string{"-strategy", "refine"}, []string{
			"charm_pe_background_seconds_total", "charm_lb_step_migrations", "charm_lb_migrations_total",
			"machine_core_busy_seconds", "sim_events_total", "runner_scenarios_total",
		}, []string{"charm_lb_migrations_total"}},
		{"lossy-network", append(lossy, "-straggle", "1:4"),
			[]string{"xnet_drops_total", "xnet_retransmits_total", "xnet_link_busy_seconds"},
			[]string{"xnet_drops_total"}},
		{"diffusion", []string{"-strategy", "diffusion"},
			[]string{"charm_lb_rounds_total", "charm_lb_peak_state_bytes", "charm_lb_migrations_total"},
			[]string{"charm_lb_rounds_total"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			totals := exportTotals(t, append(base, tc.flags...)...)
			for _, name := range tc.series {
				if _, ok := totals[name]; !ok {
					t.Errorf("series %s missing from the export", name)
				}
			}
			for _, name := range tc.positive {
				if totals[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, totals[name])
				}
			}
		})
	}

	// The straggler's slowdown must reach the links: without -straggle the
	// same lossy run keeps its links busy for less time.
	straggled := exportTotals(t, append(append(base, lossy...), "-straggle", "1:4")...)
	uniform := exportTotals(t, append(base, lossy...)...)
	if s, u := straggled["xnet_link_busy_seconds"], uniform["xnet_link_busy_seconds"]; !(s > u) {
		t.Errorf("xnet_link_busy_seconds %v with -straggle 1:4, %v without; want more", s, u)
	}
}

// exportTotals runs lbsim with args and a -metrics export, and sums the
// Prometheus text export's sample values by metric name, across label
// sets.
func exportTotals(t *testing.T, args ...string) map[string]float64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.prom")
	lbsimOK(t, append(args, "-metrics", path)...)
	export, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]float64{}
	for _, line := range strings.Split(string(export), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("export line %q: %v", line, err)
		}
		totals[name] += v
	}
	return totals
}

// TestSubmitPrintsLocalRendering runs the same flags locally and with
// -submit against an in-process service. Both must print the same
// measurement lines (power and energy included), for one seed and for
// -runs 2. The first submission is computed and the second a cache hit
// with the same artifact lines, and a -chrome file written from the
// job's trace.json is byte-identical to a local one.
func TestSubmitPrintsLocalRendering(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mux := http.NewServeMux()
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	dir := t.TempDir()
	for _, tc := range []struct {
		runs string
		want string // a line only the rendering for this many runs prints
	}{
		{"1", "avg power:"},
		{"2", "power W"},
	} {
		t.Run("runs="+tc.runs, func(t *testing.T) {
			args := []string{"-app", "wave2d", "-cores", "8", "-strategy", "refine", "-bg", "-scale", "0.05", "-runs", tc.runs}
			var localChrome, remoteChrome []string
			if tc.runs == "1" {
				localChrome = []string{"-chrome", filepath.Join(dir, "local.json")}
				remoteChrome = []string{"-chrome", filepath.Join(dir, "remote.json")}
			}
			local := lbsimOK(t, append(args, localChrome...)...)
			first := lbsimOK(t, append(append(args, "-submit", ts.URL), remoteChrome...)...)
			second := lbsimOK(t, append(args, "-submit", ts.URL)...)

			lines := measurementLines(local)
			if !strings.Contains(lines, tc.want) || !strings.Contains(lines, "energy") {
				t.Fatalf("local rendering lacks power and energy:\n%s", local)
			}
			for _, remote := range []string{first, second} {
				if got := measurementLines(remote); got != lines {
					t.Fatalf("-submit printed\n%s\nwant the local lines\n%s", got, lines)
				}
			}
			if !strings.Contains(first, "(computed, spec") || !strings.Contains(second, "(cache hit, spec") {
				t.Fatalf("want computed then cache hit, got\n%s\n%s", first, second)
			}
			if a1, a2 := artifactLines(first), artifactLines(second); a1 == "" || a1 != a2 {
				t.Fatalf("artifact lines differ across the cache hit:\n%s\n%s", a1, a2)
			}
			if tc.runs == "1" {
				a, errA := os.ReadFile(localChrome[1])
				b, errB := os.ReadFile(remoteChrome[1])
				if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
					t.Fatalf("local -chrome (%d bytes, %v) and the job's trace.json (%d bytes, %v) differ",
						len(a), errA, len(b), errB)
				}
			}
		})
	}
}

// measurementLines is the output up to the first job: or trace: line —
// what a run measured, not where it ran or what it wrote.
func measurementLines(out string) string {
	var keep []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "job:") || strings.HasPrefix(line, "trace:") {
			break
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func artifactLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "artifact:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestInvalidFlagsExitWithFieldError: flag values that would panic
// mid-run or print nonsense fail validation, exiting 2 with the
// offending Spec field on stderr.
func TestInvalidFlagsExitWithFieldError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-app", "wave2d", "-cores", "8", "-straggle", "99:4"}, "net.straggler_nodes[0]"},
		{[]string{"-bg", "-bgweight", "NaN"}, "bg_weight"},
		{[]string{"-droppct", "NaN"}, "net.drop_pct"},
		{[]string{"-hier", "-preempt", "1:0.1:0:0:-1"}, "hierarchical"},
		{[]string{"-strategy", "diffusion", "-hier"}, "hierarchical"},
	} {
		_, stderr, code := lbsim(t, append(tc.args, "-scale", "0.05")...)
		if code != 2 || !strings.Contains(stderr, "lbsim: "+tc.field+": ") || strings.Contains(stderr, "panic") {
			t.Errorf("lbsim %v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.field)
		}
	}
}

// TestServeReportsPoolAccount runs a two-seed batch with -serve and
// reads /api/v1/run while the server holds its endpoints open after the
// run: the served state is the pool's final account — both scenarios
// queued and done, the run finished, the events of lbsim's own summary
// line — and the pool's wall histogram holds one sample per scenario.
// /api/v1/lbsteps then serves rows that name their run: each carries
// rts=app and its scenario's batch index, and both scenarios appear.
func TestServeReportsPoolAccount(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-runs", "2", "-scale", "0.05",
		"-serve", "127.0.0.1:0", "-serve-wait", "3s")
	cmd.Env = append(os.Environ(), "LBSIM_TEST_MAIN=1")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	serving := regexp.MustCompile(`^telemetry: serving on (http://\S+)/$`)
	summary := regexp.MustCompile(`^lbsim: (\d+) simulated events in `)
	var base string
	var events uint64
	sc := bufio.NewScanner(stderr)
	for events == 0 && sc.Scan() {
		if m := serving.FindStringSubmatch(sc.Text()); m != nil {
			base = m[1]
		}
		if m := summary.FindStringSubmatch(sc.Text()); m != nil {
			events, _ = strconv.ParseUint(m[1], 10, 64)
		}
	}
	if base == "" || events == 0 {
		t.Fatalf("stderr gave address %q and %d events, want both", base, events)
	}
	go func() { _, _ = io.Copy(io.Discard, stderr) }()

	// The summary line precedes the drain that marks the run finished;
	// the -serve-wait window bounds the wait for it.
	var st telemetry.RunState
	for deadline := time.Now().Add(3 * time.Second); !st.Finished && time.Now().Before(deadline); {
		resp, err := http.Get(base + "/api/v1/run")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Finished {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !st.Finished || st.ScenariosTotal != 2 || st.ScenariosDone != 2 || st.ScenariosInFlight != 0 ||
		st.Events != events || st.ScenarioWall.Count != 2 {
		t.Fatalf("/api/v1/run: %+v; want 2 of 2 scenarios done, finished, %d events, 2 wall samples", st, events)
	}

	resp, err := http.Get(base + "/api/v1/lbsteps")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Steps []struct {
			Labels []metrics.Label `json:"labels"`
		} `json:"steps"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]bool{}
	for i, row := range doc.Steps {
		labels := map[string]string{}
		for _, l := range row.Labels {
			labels[l.Name] = l.Value
		}
		scenario, ok := labels["scenario"]
		if labels["rts"] != "app" || !ok {
			t.Fatalf("lbsteps row %d labeled %v, want rts=app and a scenario", i, row.Labels)
		}
		scenarios[scenario] = true
	}
	if !scenarios["0"] || !scenarios["1"] {
		t.Fatalf("lbsteps rows name scenarios %v, want 0 and 1 (%d rows)", scenarios, len(doc.Steps))
	}
}
