package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"cloudlb/internal/service"
	"cloudlb/internal/service/store"
)

// TestMain lets a test re-run the test binary as the figures command:
// with FIGURES_TEST_MAIN=1 set, the process runs main with its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSubmitAllFigures runs `figures -fig all -submit` against an
// in-process service. The timelines render locally (Figure 3 among
// them), the eight table figures run as server jobs, and each Figure 4
// panel is a cache hit on its Figure 2 panel's evaluate job.
func TestSubmitAllFigures(t *testing.T) {
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

	cmd := exec.Command(os.Args[0], "-fig", "all", "-cores", "4,8", "-seeds", "1", "-scale", "0.05", "-submit", ts.URL)
	cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("figures: %v\n%s", err, stderr.String())
	}
	if !strings.Contains("\n"+stdout.String(), "\nFigure 3:") {
		t.Errorf("Figure 3 did not render locally:\n%s", stdout.String())
	}
	if n := strings.Count(stderr.String(), "figures: job "); n != 8 {
		t.Errorf("ran %d server jobs, want 8:\n%s", n, stderr.String())
	}
	if n := strings.Count(stderr.String(), "(cache hit): energy.csv"); n != 3 {
		t.Errorf("%d Figure 4 panels reused their Figure 2 job, want 3:\n%s", n, stderr.String())
	}
}

// TestInvalidFlagsExitWithFieldError: flag values that would panic
// mid-run or silently simulate something else fail validation before
// the first scenario, exiting 2 with the offending Spec field on stderr,
// as lbsim does. Rows without their own -scale run at -scale 0.05.
func TestInvalidFlagsExitWithFieldError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-fig", "2a", "-cores", "6"}, "cores[0]"},
		{[]string{"-fig", "2a", "-straggle", "99:4"}, "net.straggler_nodes[0]"},
		{[]string{"-fig", "compare", "-droppct", "NaN"}, "net.drop_pct"},
		{[]string{"-fig", "7", "-droppct", "NaN"}, "net.drop_pct"},
		{[]string{"-fig", "1", "-scale", "NaN"}, "scale"},
		{[]string{"-fig", "1", "-straggle", "99:4"}, "net.straggler_nodes[0]"},
		{[]string{"-fig", "3", "-droppct", "NaN"}, "net.drop_pct"},
		{[]string{"-fig", "3", "-scale", "-1"}, "scale"},
	} {
		args := tc.args
		if !slices.Contains(args, "-scale") {
			args = append(args, "-scale", "0.05")
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code := cmd.ProcessState.ExitCode()
		if code != 2 || !strings.Contains(stderr.String(), "figures: "+tc.field+": ") || strings.Contains(stderr.String(), "panic") || stdout.Len() > 0 {
			t.Errorf("figures %v: exit %d, stdout %q, stderr %q; want exit 2 naming %s before any output",
				tc.args, code, stdout.String(), stderr.String(), tc.field)
		}
	}
}

// TestTimelineFiguresMatchResults pins Figures 1 and 3 to the committed
// oracle: at the default scale each figure's stdout appears verbatim in
// results/figures_full.txt, the -fig all regeneration.
func TestTimelineFiguresMatchResults(t *testing.T) {
	oracle, err := os.ReadFile("../../results/figures_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"1", "3"} {
		cmd := exec.Command(os.Args[0], "-fig", fig)
		cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("figures -fig %s: %v\n%s", fig, err, stderr.String())
		}
		if stdout.Len() == 0 || !bytes.Contains(oracle, stdout.Bytes()) {
			t.Errorf("figures -fig %s output is not in results/figures_full.txt:\n%s", fig, stdout.String())
		}
	}
}
