package charm

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"cloudlb/internal/sim"
)

var (
	revGridStep   = flag.Float64("revgrid.step", 0.04, "seconds between the revocation grid's instants")
	revGridDetect = flag.String("revgrid.detect", "0.05,0.2", "comma-separated fault detection delays (seconds) the revocation grid runs at")
)

// TestRevocationGrid revokes each PE of the halo ring at every grid
// instant of its run, in four shapes, at each detection delay, and
// requires every run to finish with the chare invariants intact
// (haloWorkload checks them at every LB step and at the end). The ring
// runs five LB steps, so the grid crosses every phase of the step
// protocol: a kill just before a step is detected mid-gather or after the
// step ended without the dead PE's chares.
//
//	go test -run TestRevocationGrid ./internal/charm -args -revgrid.step=0.005 -revgrid.detect=0.05,0.2
func TestRevocationGrid(t *testing.T) {
	var delays []sim.Duration
	for _, f := range strings.Split(*revGridDetect, ",") {
		d, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || d <= 0 {
			t.Fatalf("-revgrid.detect: bad delay %q", f)
		}
		delays = append(delays, sim.Duration(d))
	}
	step := sim.Duration(*revGridStep)
	if step <= 0 {
		t.Fatalf("-revgrid.step %v is not positive", step)
	}
	eng, r := haloWorkload(t, faultDetectionDelay)
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	end := r.FinishTime()

	shapes := []struct {
		name    string
		warning sim.Duration
		restore sim.Duration // after the revocation: 0 in the same event, < 0 never
	}{
		{"hard-kill", 0, -1},
		{"hard-kill-restored", 0, 0.1},
		{"warning-20ms", 0.02, -1},
		{"revoke-and-restore", 0, 0},
	}
	failed := 0
	for _, sh := range shapes {
		for _, detect := range delays {
			for pe := 0; pe < 4; pe++ {
				for k := 1; sim.Time(k)*step < end; k++ {
					at := sim.Time(k) * step
					name := fmt.Sprintf("%s/detect=%gs/pe%d/t=%.3f", sh.name, detect, pe, at)
					if !t.Run(name, func(t *testing.T) {
						eng, r := haloWorkload(t, detect)
						r.Start()
						eng.At(at, func() {
							r.RevokePE(pe, sh.warning)
							if sh.restore == 0 {
								r.RestorePE(pe, -1)
							}
						})
						if sh.restore > 0 {
							eng.At(at+sh.restore, func() { r.RestorePE(pe, -1) })
						}
						if err := eng.Run(); err != nil {
							t.Fatal(err)
						}
						if !r.Finished() {
							t.Errorf("the run stalled at t=%v", eng.Now())
						}
					}) {
						failed++
					}
				}
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d runs failed", failed)
	}
}
