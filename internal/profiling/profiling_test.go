package profiling

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/service"
)

// TestServeStoreMountsJobService: -serve with -store mounts the scenario
// job service on the telemetry server, so a job submitted there runs and
// /readyz reports the service's probe; -store without -serve is refused.
func TestServeStoreMountsJobService(t *testing.T) {
	f := &Flags{Serve: "127.0.0.1:0", Store: t.TempDir()}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	client := &service.Client{BaseURL: ts.URL}
	view, err := client.Run(ctx, service.Request{Method: "scenarios",
		Spec: experiment.Spec{App: experiment.Jacobi2D, Cores: []int{4}, Scale: 0.05}})
	if err != nil || view.State != service.StateDone || view.Artifacts["rows.json"].URL == "" {
		t.Fatalf("job on the mounted service: %v %+v", err, view)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil || resp.StatusCode != http.StatusOK || ready.Checks["service"] != "ok" {
		t.Fatalf("/readyz: %d %v %+v, want 200 with the service probe ok", resp.StatusCode, err, ready)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	if _, err := (&Flags{Store: t.TempDir()}).Start(); err == nil {
		t.Fatal("-store without -serve started")
	}
}
