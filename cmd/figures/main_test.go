package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
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
