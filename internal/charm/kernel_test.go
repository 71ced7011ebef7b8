package charm

import (
	"flag"
	"runtime"
	"testing"
)

var kernelWorkerFlag = flag.Bool("charm.kernelworker", false,
	"build the elastic tests' runtimes with a kernel worker; their chares defer their sends")

// testKernels returns a kernel worker for a test's runtime under
// -charm.kernelworker, stopped when the test ends, and nil otherwise.
func testKernels(t *testing.T) *KernelWorker {
	if !*kernelWorkerFlag {
		return nil
	}
	w := StartKernelWorker()
	t.Cleanup(func() { w.Stop() })
	return w
}

// mixToken is mixChare's message: its hop count and the sender's
// accumulator.
type mixToken struct {
	hop int
	v   uint64
}

// mixChare forwards tokens round a ring. Each entry's tail folds the
// token into the chare's accumulator and forwards the result, so every
// send depends on deferred arithmetic; every third entry defers a second
// tail that reads the first's result.
type mixChare struct {
	next       ChareID
	hops, got  int
	tok        mixToken
	acc        uint64
	fold, twix func(*Ctx)
}

func (c *mixChare) PackSize() int { return 64 }

func (c *mixChare) Recv(ctx *Ctx, data interface{}) float64 {
	switch m := data.(type) {
	case Start:
		ctx.Send(c.next, mixToken{v: uint64(ctx.Self().Index)}, 16)
	case mixToken:
		c.got++
		c.tok = m
		ctx.Defer(c.fold)
		if c.got%3 == 0 {
			ctx.Defer(c.twix)
		}
		if c.got == c.hops {
			ctx.Done()
		}
	}
	return 1e-4
}

func (c *mixChare) foldTail(ctx *Ctx) {
	c.acc = (c.acc ^ c.tok.v) * 1099511628211
	if c.tok.hop+1 < c.hops {
		ctx.Send(c.next, mixToken{hop: c.tok.hop + 1, v: c.acc}, 16)
	}
}

func (c *mixChare) twixTail(*Ctx) { c.acc ^= c.acc >> 7 }

// TestKernelWorkerMatchesInline runs the mix ring with every tail inline
// and with a kernel worker: each chare's accumulator and the finish time
// must agree, and every deferred tail must have run exactly once, on the
// worker or at its join.
func TestKernelWorkerMatchesInline(t *testing.T) {
	const n, hops = 16, 40
	run := func(w *KernelWorker) ([]uint64, float64) {
		eng, m, net := testWorld(1, 4)
		r := NewRTS(Config{Machine: m, Net: net, Cores: allCores(m), Kernels: w})
		chares := make([]*mixChare, n)
		r.NewArray("mix", n, func(i int) Chare {
			c := &mixChare{next: ChareID{Array: "mix", Index: (i + 1) % n}, hops: hops}
			c.fold, c.twix = c.foldTail, c.twixTail
			chares[i] = c
			return c
		})
		r.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !r.Finished() {
			t.Fatal("mix ring did not finish")
		}
		accs := make([]uint64, n)
		for i, c := range chares {
			accs[i] = c.acc
		}
		return accs, float64(r.FinishTime())
	}
	want, wantAt := run(nil)
	w := StartKernelWorker()
	got, gotAt := run(w)
	st := w.Stop()
	if gotAt != wantAt {
		t.Errorf("finish time %v with a kernel worker, want %v", gotAt, wantAt)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("chare %d: accumulator %x with a kernel worker, want %x", i, got[i], want[i])
		}
	}
	if tails := uint64(n * (hops + hops/3)); st.Worker+st.Joined != tails {
		t.Errorf("%d tails on the worker and %d at joins, want %d in all", st.Worker, st.Joined, tails)
	}
}

// TestKernelWorkerPanicReachesJoin: a tail that panics on the worker
// panics again at its join, on the event thread, with the same value,
// and leaves its task reusable.
func TestKernelWorkerPanicReachesJoin(t *testing.T) {
	w := StartKernelWorker()
	defer w.Stop()
	var task kernelTask
	task.fn = func(*Ctx) { panic("tail failed") }
	task.state.Store(taskQueued)
	w.push(&task)
	for task.state.Load() != taskDone {
		runtime.Gosched()
	}
	defer func() {
		if v := recover(); v != "tail failed" {
			t.Errorf("join raised %v, want the tail's panic", v)
		}
		if s := task.state.Load(); s != taskIdle {
			t.Errorf("task state %d after the join, want idle", s)
		}
	}()
	w.join(&task)
}

// TestKernelWorkerStopRunsQueuedTails: Stop runs what is still queued
// before the worker ends, and a full queue leaves a tail to its join.
func TestKernelWorkerStopRunsQueuedTails(t *testing.T) {
	w := StartKernelWorker()
	ran := 0
	var task kernelTask
	task.fn = func(*Ctx) { ran++ }
	task.state.Store(taskQueued)
	w.push(&task)
	if st := w.Stop(); ran != 1 || st.Worker != 1 || task.state.Load() != taskDone {
		t.Errorf("after Stop: tail ran %d times, worker count %d, state %d; want 1, 1, done", ran, st.Worker, task.state.Load())
	}

	full := &KernelWorker{tasks: make(chan *kernelTask, 1)}
	full.tasks <- new(kernelTask)
	var late kernelTask
	late.fn = func(*Ctx) { ran++ }
	late.state.Store(taskQueued)
	full.push(&late)
	if len(full.tasks) != 1 {
		t.Fatal("push queued past a full queue")
	}
	full.join(&late)
	if ran != 2 || full.joined != 1 {
		t.Errorf("full queue: the join ran the tail %d times, counted %d; want 1, 1", ran-1, full.joined)
	}
}
