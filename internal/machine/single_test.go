package machine

import (
	"testing"

	"cloudlb/internal/sim"
)

// TestNewIsOneShardOverEngine pins New as the one-shard scheduler over the
// caller's engine: every core schedules on it, and a global event is a
// plain event on it, so callers may keep driving eng directly.
func TestNewIsOneShardOverEngine(t *testing.T) {
	eng, m := newTestMachine(2, 2)
	sh := m.Shards()
	if sh.NumShards() != 1 || sh.Engine(0) != eng || m.Engine() != eng {
		t.Fatalf("New: %d shards, engine 0 is eng: %v", sh.NumShards(), sh.Engine(0) == eng)
	}
	for i := 0; i < m.NumCores(); i++ {
		if m.EngineFor(i) != eng || m.ShardOf(i) != 0 {
			t.Fatalf("core %d: own engine %v, shard %d", i, m.EngineFor(i) == eng, m.ShardOf(i))
		}
	}
	fired := false
	sh.GlobalAt(0.5, func() { fired = true })
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !fired || sh.Now() != 1 {
		t.Fatalf("global event fired %v, scheduler clock %v after eng.RunUntil(1)", fired, sh.Now())
	}
}

// TestOneShardKeepsNoBusyLog asserts a one-shard machine never logs busy
// points — its readings are never late — while a multi-shard one does.
func TestOneShardKeepsNoBusyLog(t *testing.T) {
	load := func(m *Machine) {
		ids := make([]int, m.NumCores())
		for i := range ids {
			ids[i] = i
		}
		m.EnableBusyLog(ids)
		for i := 0; i < m.NumCores(); i++ {
			th := m.NewThread("w", m.Core(i), 1)
			var loop func()
			loop = func() { th.Run(0.01, loop) }
			loop()
		}
	}
	eng, one := newTestMachine(2, 2)
	load(one)
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	for _, c := range one.cores {
		if c.logPoints || len(c.busyLog) != 0 {
			t.Fatalf("one shard: core %d logging %v with %d points", c.ID, c.logPoints, len(c.busyLog))
		}
	}
	sh := sim.NewShards(2, 0.05)
	defer sh.Close()
	two := NewSharded(sh, Config{Nodes: 2, CoresPerNode: 2, CoreSpeed: 1})
	load(two)
	if err := sh.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	for _, c := range two.cores {
		if !c.logPoints || len(c.busyLog) < 2 {
			t.Fatalf("two shards: core %d logging %v with %d points", c.ID, c.logPoints, len(c.busyLog))
		}
	}
}

// TestBusyAtReadsCurrentStateWithoutSettling asserts that at or after the
// last settlement BusyAt answers from the core's state, needs no log, and
// leaves the core unsettled, yet matches the ProcStat reading bit for bit.
func TestBusyAtReadsCurrentStateWithoutSettling(t *testing.T) {
	eng, m := newTestMachine(1, 1)
	c := m.Core(0)
	th := m.NewThread("w", c, 1)
	th.Run(0.3, nil)
	if err := eng.RunUntil(0.7); err != nil {
		t.Fatal(err)
	}
	th.Run(1, nil)
	if err := eng.RunUntil(0.9 + 1.0/3); err != nil {
		t.Fatal(err)
	}
	last := c.lastSettle
	got := c.BusyAt(eng.Now())
	if c.lastSettle != last {
		t.Fatalf("BusyAt settled the core: last settlement %v -> %v", last, c.lastSettle)
	}
	if want, _ := c.ProcStat(); got != want {
		t.Fatalf("BusyAt(now) = %v, ProcStat busy = %v", got, want)
	}
}
