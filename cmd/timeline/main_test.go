package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
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
	cmd := exec.Command(os.Args[0], "-iters", "40",
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
