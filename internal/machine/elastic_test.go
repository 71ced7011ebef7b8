package machine

import (
	"math"
	"testing"
)

func TestSetOfflineRejectsNewBursts(t *testing.T) {
	_, m := newTestMachine(1, 2)
	th := m.NewThread("a", m.Core(0), 1)
	m.Core(0).SetOffline()
	if m.Core(0).Online() {
		t.Fatal("core still online after SetOffline")
	}
	if m.NumOnline() != 1 {
		t.Fatalf("NumOnline=%d, want 1", m.NumOnline())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("starting a burst on an offline core did not panic")
		}
	}()
	th.Run(1, func() {})
}

func TestSetOfflineWithRunnableThreadPanics(t *testing.T) {
	_, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	th.Run(5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("offlining a busy core did not panic")
		}
	}()
	m.Core(0).SetOffline()
}

func TestFinishNowCompletesBurstImmediately(t *testing.T) {
	eng, m := newTestMachine(1, 2)
	th := m.NewThread("a", m.Core(0), 1)
	done := false
	th.Run(5, func() { done = true })
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	th.FinishNow()
	if !done {
		t.Fatal("FinishNow did not fire the completion callback")
	}
	if th.Running() {
		t.Fatal("thread still running after FinishNow")
	}
	// Only the served portion of the burst is charged.
	if got := float64(th.CPUTime()); math.Abs(got-1) > 1e-9 {
		t.Fatalf("cpu time %v after FinishNow, want 1 (remaining demand forfeited)", got)
	}
	// The thread is immediately migratable and usable on another core.
	th.Migrate(m.Core(1))
	redone := false
	th.Run(1, func() { redone = true })
	if err := eng.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if !redone {
		t.Fatal("thread unusable after FinishNow + Migrate")
	}
	// The original core must be properly re-armed and idle.
	busy, idle := m.Core(0).ProcStat()
	if math.Abs(float64(busy)-1) > 1e-9 || math.Abs(float64(idle)-2) > 1e-9 {
		t.Fatalf("core0 busy=%v idle=%v, want 1/2", busy, idle)
	}
}

func TestFinishNowOnIdleThreadIsNoop(t *testing.T) {
	_, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	th.FinishNow() // must not panic or fire anything
	if th.Running() {
		t.Fatal("idle thread running after FinishNow")
	}
}

func TestFinishNowZeroDemandBurstFiresOnce(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	th := m.NewThread("a", m.Core(0), 1)
	fired := 0
	th.Run(0, func() { fired++ })
	th.FinishNow() // completes synchronously; the queued event must be discarded
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("zero-demand burst completed %d times after FinishNow, want 1", fired)
	}
}

func TestOfflineSpanCountsAsIdleAndVanishesFromProcStat(t *testing.T) {
	eng, m := newTestMachine(1, 2)
	th := m.NewThread("a", m.Core(1), 1)
	th.Run(1, func() {})
	m.Core(0).SetOffline()
	if err := eng.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	m.Core(0).SetOnline()
	// Offline wall time accumulated as idle, so busy+idle == elapsed.
	busy, idle := m.Core(0).ProcStat()
	if busy != 0 || math.Abs(float64(idle)-2) > 1e-9 {
		t.Fatalf("core0 busy=%v idle=%v after outage, want 0/2", busy, idle)
	}
	// The restored core serves bursts again.
	th2 := m.NewThread("b", m.Core(0), 1)
	ok := false
	th2.Run(1, func() { ok = true })
	if err := eng.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("restored core did not serve a burst")
	}
}
