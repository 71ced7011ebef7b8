package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudlb/internal/telemetry"
)

// TestMain lets a test re-run the test binary as the timeline command:
// with TIMELINE_TEST_MAIN=1 set, the process runs main with its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TIMELINE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestHogsOverlappingTheRun drives a short RefineLB run whose two hogs
// both start and stop while the application runs, so the balancer sheds
// load and takes it back: the summary line, one LB-step table row per
// step and a Chrome trace must all come out.
func TestHogsOverlappingTheRun(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "timeline.json")
	cmd := exec.Command(os.Args[0], "-scale", "0.2",
		"-hog1", "0.1", "-hog1stop", "0.4", "-hog2", "0.5", "-hog2stop", "0.8",
		"-lbsteps", "-chrome", chrome)
	cmd.Env = append(os.Environ(), "TIMELINE_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("timeline: %v\n%s%s", err, out.String(), errb.String())
	}
	stdout := out.String()

	summary := regexp.MustCompile(`(?m)^Wave2D \(refine\) finished at ([0-9.]+)s, (\d+) migrations, (\d+) LB steps$`).
		FindStringSubmatch(stdout)
	if summary == nil {
		t.Fatalf("no summary line in:\n%s", stdout)
	}
	finish, _ := strconv.ParseFloat(summary[1], 64)
	migrations, _ := strconv.Atoi(summary[2])
	steps, _ := strconv.Atoi(summary[3])
	if finish <= 0.8 || migrations == 0 || steps == 0 {
		t.Fatalf("finish %vs (hogs end at 0.8s), %d migrations, %d LB steps", finish, migrations, steps)
	}

	_, table, ok := strings.Cut(stdout, "\nper-LB-step timeline:\n")
	if !ok {
		t.Fatalf("no LB-step table in:\n%s", stdout)
	}
	row := regexp.MustCompile(`^\s+\d+\s`)
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if row.MatchString(line) {
			rows++
		}
	}
	if rows != steps {
		t.Errorf("LB-step table has %d rows for %d LB steps:\n%s", rows, steps, table)
	}

	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("Chrome trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("Chrome trace is empty")
	}
}

// TestInvalidFlagsExitWithFieldError: a bad -scale fails Spec.Validate,
// and a non-finite hog time or a stop at or before its start fails the
// hog check, before anything runs:
// exit 2 with the offending field on stderr and nothing on stdout. A Go
// panic also exits 2, so the test rules it out by name.
func TestInvalidFlagsExitWithFieldError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-scale", "NaN"}, "scale"},
		{[]string{"-hog1", "NaN"}, "hog1"},
		{[]string{"-hog2stop", "Inf"}, "hog2stop"},
		{[]string{"-scale", "0.5", "-hog1", "0.5", "-hog1stop", "0.2"}, "hog1stop"},
		{[]string{"-hog2", "5", "-hog2stop", "5"}, "hog2stop"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "TIMELINE_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code := cmd.ProcessState.ExitCode()
		if code != 2 || !strings.Contains(stderr.String(), "timeline: "+tc.field+": ") ||
			strings.Contains(stderr.String(), "panic") || stdout.Len() > 0 {
			t.Errorf("timeline %v: exit %d, stdout %q, stderr %q; want exit 2 naming %s before any output",
				tc.args, code, stdout.String(), stderr.String(), tc.field)
		}
	}
}

// TestServeReportsPoolAccount runs a short timeline with -serve and reads
// /api/v1/run while the server holds its endpoints open after the run:
// the run's one scenario went through a pool, so the served account
// holds it queued and done, the run finished, and the pool's wall
// histogram one sample.
func TestServeReportsPoolAccount(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-scale", "0.1", "-serve", "127.0.0.1:0", "-serve-wait", "3s")
	cmd.Env = append(os.Environ(), "TIMELINE_TEST_MAIN=1")
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
	var base string
	sc := bufio.NewScanner(stderr)
	for base == "" && sc.Scan() {
		if m := serving.FindStringSubmatch(sc.Text()); m != nil {
			base = m[1]
		}
	}
	if base == "" {
		t.Fatal("stderr gave no server address")
	}
	go func() { _, _ = io.Copy(io.Discard, stderr) }()

	// The run finishes, then the drain marks it finished and holds the
	// endpoints open for -serve-wait.
	var st telemetry.RunState
	for deadline := time.Now().Add(30 * time.Second); !st.Finished && time.Now().Before(deadline); {
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
	if !st.Finished || st.ScenariosTotal != 1 || st.ScenariosDone != 1 || st.ScenariosInFlight != 0 ||
		st.Events == 0 || st.ScenarioWall.Count != 1 {
		t.Fatalf("/api/v1/run: %+v; want 1 of 1 scenarios done, finished, its events, 1 wall sample", st)
	}
}
