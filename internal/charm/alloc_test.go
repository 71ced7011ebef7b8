package charm

import (
	"testing"

	"cloudlb/internal/sim"
)

// ringChare passes tokens round a ring of chares. Every chare starts one
// token, so with n chares on one PE n deliveries are always outstanding
// and the PE's queue stays about n deep.
type ringChare struct {
	next ChareID
	tok  ringToken
	fifo *ringFIFO
}

type ringToken struct{ stamp int }

// ringFIFO stamps tokens in send order and records whether a delivery
// ever came out of the queue ahead of one sent before it.
type ringFIFO struct {
	sent, last int
	broken     bool
}

func (c *ringChare) PackSize() int { return 64 }
func (c *ringChare) Recv(ctx *Ctx, data interface{}) float64 {
	tok := &c.tok
	if d, ok := data.(*ringToken); ok {
		if d.stamp <= c.fifo.last {
			c.fifo.broken = true
		}
		c.fifo.last = d.stamp
		tok = d
	}
	// Entries run one at a time on the single PE and every hop has the
	// same latency, so stamping at entry start numbers the sends in the
	// order they reach the queue.
	c.fifo.sent++
	tok.stamp = c.fifo.sent
	ctx.Send(c.next, tok, 16)
	return 0
}

// ringWorld starts n ringChares on a single PE.
func ringWorld(n int) (*sim.Engine, *RTS, *ringFIFO) {
	eng, m, net := testWorld(1, 1)
	r := NewRTS(Config{Machine: m, Net: net, Cores: allCores(m)})
	fifo := &ringFIFO{}
	r.NewArray("ring", n, func(i int) Chare {
		return &ringChare{next: ChareID{Array: "ring", Index: (i + 1) % n}, fifo: fifo}
	})
	r.Start()
	return eng, r, fifo
}

// TestDeepQueueSteadyStateAllocFree is the deep-queue gate: 1024 chares on
// one PE keep its application queue over a thousand deliveries deep, where
// a dequeue that shifts the queue costs a thousand copies. Delivery must
// stay allocation-free at that depth, and deliveries must leave the queue
// in the order they entered it.
func TestDeepQueueSteadyStateAllocFree(t *testing.T) {
	eng, r, fifo := ringWorld(1024)
	for i := 0; i < 20000; i++ {
		if !eng.Step() {
			t.Fatal("engine drained during warm-up")
		}
	}
	if d := r.pes[0].appQueued(); d < 1000 {
		t.Fatalf("queue depth %d, want at least 1000", d)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if !eng.Step() {
				t.Fatal("engine drained mid-measurement")
			}
		}
	})
	if avg != 0 {
		t.Errorf("deep-queue messaging: %.2f allocs per 100 events, want 0", avg)
	}
	if fifo.broken {
		t.Error("a delivery left the queue ahead of one sent before it")
	}
}

// echoChare bounces a message between two chares forever, so the world
// can be held in steady state for as many events as a measurement needs.
type echoChare struct {
	peer ChareID
}

func (c *echoChare) PackSize() int { return 64 }
func (c *echoChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch data.(type) {
	case Start:
		if ctx.Self().Index == 0 {
			ctx.Send(c.peer, tick{}, 64)
		}
	case tick:
		ctx.Send(c.peer, tick{}, 64)
	}
	return 0
}

// TestMessageSteadyStateAllocFree is the allocation-budget gate for the
// pooled messaging path: once the envelope free list and event free list
// are primed, a send/deliver/receive cycle must not allocate. The budget
// is exactly zero — any regression here multiplies by every message of
// every scenario.
func TestMessageSteadyStateAllocFree(t *testing.T) {
	eng, m, n := testWorld(2, 1)
	r := NewRTS(Config{Machine: m, Net: n, Cores: allCores(m)})
	r.NewArray("p", 2, func(i int) Chare {
		return &echoChare{peer: ChareID{Array: "p", Index: 1 - i}}
	})
	r.Start()
	// Prime the pools: the first round trips grow the free lists.
	for i := 0; i < 2000; i++ {
		if !eng.Step() {
			t.Fatal("engine drained during warm-up")
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if !eng.Step() {
				t.Fatal("engine drained mid-measurement")
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state messaging: %.2f allocs per 100 events, want 0", avg)
	}
}
