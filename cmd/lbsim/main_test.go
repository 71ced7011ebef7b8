package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
			cmd := exec.Command(os.Args[0], "-app", "jacobi2d", "-cores", "4", "-strategy", "none",
				"-runs", tc.runs, "-parallel", "2", "-scale", "0.05", "-metrics", path)
			cmd.Env = append(os.Environ(), "LBSIM_TEST_MAIN=1")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("lbsim: %v\n%s", err, out)
			}
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
