package charm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cloudlb/internal/core"
)

// checkChares verifies the chare record table against the PE rosters —
// the runtime's "every chare lives on exactly one live PE" invariant — and
// each PE's active count against a roster scan. With inFlight false no
// chare may be between PEs. A hard-killed PE keeps its chares until the
// failure is detected, so those do not count against it.
func checkChares(r *RTS, inFlight bool) error {
	resident := 0
	for _, p := range r.pes {
		active := 0
		for i, rec := range p.roster {
			if rec.host != p.index || rec.loc != p.index {
				return fmt.Errorf("%v on PE %d's roster has host %d, loc %d", rec.id, p.index, rec.host, rec.loc)
			}
			if i > 0 && p.roster[i-1].id.Compare(rec.id) >= 0 {
				return fmt.Errorf("PE %d's roster out of order at %v", p.index, rec.id)
			}
			if !rec.done {
				active++
			}
		}
		if active != p.active {
			return fmt.Errorf("PE %d counts %d active chares, its roster %d", p.index, p.active, active)
		}
		undetected := p.wentOffline && r.eng.Now() <= p.offlineAt+r.detectDelay
		if p.retired && len(p.roster) > 0 && !undetected {
			return fmt.Errorf("revoked PE %d still hosts %d chares", p.index, len(p.roster))
		}
		resident += len(p.roster)
	}
	hosted := 0
	for _, a := range r.arrays {
		for i := range a.recs {
			switch rec := &a.recs[i]; {
			case rec.host >= 0:
				hosted++
			case !inFlight:
				return fmt.Errorf("%v is between PEs", rec.id)
			}
		}
	}
	if hosted != resident {
		return fmt.Errorf("%d chares hosted, %d on rosters", hosted, resident)
	}
	return nil
}

// watchInvariants checks r's record table after every LB step and once
// more, with nothing in flight, when the test ends.
func watchInvariants(t *testing.T, r *RTS) {
	t.Helper()
	r.onLBStep = func() {
		if err := checkChares(r, true); err != nil {
			t.Errorf("after LB step %d: %v", r.LBSteps(), err)
		}
	}
	t.Cleanup(func() {
		if err := checkChares(r, false); err != nil {
			t.Errorf("at run end: %v", err)
		}
	})
}

// note is a labeled test message.
type note string

// logChare appends "w<index>:<message>@<PE>" to a shared log for every
// delivery and runs its start script, if any, on Start.
type logChare struct {
	idx   int
	log   *[]string
	start func(*Ctx) float64
}

func (c *logChare) PackSize() int { return 64 }
func (c *logChare) Recv(ctx *Ctx, data interface{}) float64 {
	what := fmt.Sprint(data)
	switch data.(type) {
	case Start:
		what = "start"
	case Resume:
		what = "resume"
	}
	*c.log = append(*c.log, fmt.Sprintf("w%d:%s@%d", c.idx, what, ctx.PE()))
	if _, ok := data.(Start); ok && c.start != nil {
		return c.start(ctx)
	}
	return 0
}

// logRun places four logChares on two PEs — w0 and w1 on PE 0, w2 and w3
// on PE 1 — with the given start scripts, runs them until the engine
// drains, and returns the runtime and the delivery log.
func logRun(t *testing.T, strat core.Strategy, scripts map[int]func(*Ctx) float64) (*RTS, []string) {
	t.Helper()
	eng, m, n := testWorld(1, 2)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m), Strategy: strat})
	var log []string
	r.NewArray("w", 4, func(i int) Chare { return &logChare{idx: i, log: &log, start: scripts[i]} })
	watchInvariants(t, r)
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return r, log
}

// TestSyncedChareHeldUntilResume: messages for a chare that has called
// AtSync wait, in order, for its Resume, while later messages to another
// chare on the same PE still run.
func TestSyncedChareHeldUntilResume(t *testing.T) {
	w := func(i int) ChareID { return ChareID{Array: "w", Index: i} }
	// No strategy: w0's Resume is queued the moment its AtSync entry ends.
	_, log := logRun(t, nil, map[int]func(*Ctx) float64{
		// w0 syncs at the end of a one-second entry ...
		0: func(ctx *Ctx) float64 { ctx.AtSync(); return 1 },
		// ... while w2 messages w0 and its PE-mate w1, alternating.
		2: func(ctx *Ctx) float64 {
			ctx.Send(w(0), note("m1"), 8)
			ctx.Send(w(1), note("n1"), 8)
			ctx.Send(w(0), note("m2"), 8)
			ctx.Send(w(1), note("n2"), 8)
			return 0
		},
	})
	var pe0 []string
	for _, e := range log {
		if strings.HasSuffix(e, "@0") {
			pe0 = append(pe0, e)
		}
	}
	want := []string{"w0:start@0", "w1:start@0", "w1:n1@0", "w1:n2@0", "w0:resume@0", "w0:m1@0", "w0:m2@0"}
	if !slices.Equal(pe0, want) {
		t.Fatalf("PE 0 ran %v, want %v", pe0, want)
	}
}

// TestQueuedDeliveryFollowsMigratedChare: a delivery still queued for a
// chare when an LB step migrates it is forwarded to, and runs on, the
// chare's new PE.
func TestQueuedDeliveryFollowsMigratedChare(t *testing.T) {
	syncNow := func(ctx *Ctx) float64 { ctx.AtSync(); return 0 }
	r, log := logRun(t, &moveOnce{to: 1}, map[int]func(*Ctx) float64{
		0: syncNow,
		// w1 keeps PE 0 out of the step for a second, so w2's message to
		// w0 is still queued there when the step moves w0 to PE 1.
		1: func(ctx *Ctx) float64 { ctx.AtSync(); return 1 },
		2: func(ctx *Ctx) float64 {
			ctx.Send(ChareID{Array: "w", Index: 0}, note("hello"), 8)
			ctx.AtSync()
			return 0
		},
		3: syncNow,
	})
	if r.LBSteps() != 1 || r.Location(ChareID{Array: "w", Index: 0}) != 1 {
		t.Fatalf("%d LB steps, w0 on PE %d; want 1 step moving w0 to PE 1",
			r.LBSteps(), r.Location(ChareID{Array: "w", Index: 0}))
	}
	var hello []string
	for _, e := range log {
		if strings.HasPrefix(e, "w0:hello") {
			hello = append(hello, e)
		}
	}
	if !slices.Equal(hello, []string{"w0:hello@1"}) {
		t.Fatalf("w0 received hello as %v, want once on PE 1", hello)
	}
}
