package charm

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Deferred kernel work. An entry's cost is known before its arithmetic
// runs: the applications charge a count (cells, particle pairs), not the
// time the arithmetic took. The arithmetic's results are read only by the
// entry's own sends and by the chare's next entry, and both come after the
// entry's CPU burst completes (onEntryDone). So an entry may hand that
// numeric tail to Ctx.Defer, and a KernelWorker runs it on a second
// goroutine while the event thread simulates on. onEntryDone joins the
// tail before it applies the entry's effects; when the worker has not
// claimed the tail by then, the event thread runs it itself. Either way
// the same code runs on the same inputs, so a run with a worker fires the
// same events in the same order as a run without one.

// Task states. A PE's task goes idle → queued (Defer) → claimed (by the
// worker or by the join) → done (worker only) → idle (the join).
const (
	taskIdle uint32 = iota
	taskQueued
	taskClaimed
	taskDone
)

// kernelTask is one PE's deferred tail. A PE runs one entry at a time, so
// it has at most one tail outstanding. The pads keep the fields the
// worker writes off the cache lines of whatever the allocator places
// beside the task.
type kernelTask struct {
	_     [64]byte
	state atomic.Uint32
	fn    func(*Ctx)
	ctx   *Ctx
	// panicked holds a panic the worker recovered from fn; the join
	// raises it again on the event thread.
	panicked any
	_        [64]byte
}

// kernelQueue is the worker's queue length, above any PE count a
// scenario reaches. A tail that finds the queue full stays queued for its
// join to run.
const kernelQueue = 2048

// kernelSpin is how long an idle worker polls its queue before it blocks.
const kernelSpin = 30 * time.Microsecond

// KernelWorker runs deferred tails (Ctx.Defer) on one goroutine beside a
// scenario's event thread. The event thread is the queue's only sender,
// so one worker serves every runtime of a one-shard scenario, and no
// runtime on several shards takes one (see Config.Kernels). The worker
// polls its queue for at most kernelSpin before it blocks on it; the
// event thread's join yields while a claimed tail finishes. No progress
// depends on the worker being scheduled: a tail it has not claimed is run
// by its join.
type KernelWorker struct {
	tasks chan *kernelTask
	ran   atomic.Uint64 // tails the worker ran
	// joined counts the tails the event thread ran at a join, and
	// stopped records the first Stop (event thread only).
	joined  uint64
	stopped bool
	exited  chan struct{}
}

// KernelStats counts where a worker's tails ran.
type KernelStats struct {
	// Worker is how many tails the worker ran, Joined how many the event
	// thread ran itself at a join.
	Worker, Joined uint64
}

// StartKernelWorker starts a worker goroutine. Stop ends it.
func StartKernelWorker() *KernelWorker {
	w := &KernelWorker{tasks: make(chan *kernelTask, kernelQueue), exited: make(chan struct{})}
	go w.loop()
	return w
}

// Stop runs every tail still queued, ends the worker goroutine and
// reports where the tails ran. It is called from the event thread once
// it defers no more; a second call only reports. Stop on nil reports
// nothing.
func (w *KernelWorker) Stop() KernelStats {
	if w == nil {
		return KernelStats{}
	}
	if !w.stopped {
		w.stopped = true
		close(w.tasks)
	}
	<-w.exited
	return KernelStats{Worker: w.ran.Load(), Joined: w.joined}
}

// push queues t, already in taskQueued, for the worker. A full queue
// leaves t to its join.
func (w *KernelWorker) push(t *kernelTask) {
	select {
	case w.tasks <- t:
	default:
	}
}

// join waits for t's tail: it runs the tail itself when the worker has
// not claimed it, and otherwise yields until the worker is done.
func (w *KernelWorker) join(t *kernelTask) {
	if t.state.CompareAndSwap(taskQueued, taskClaimed) {
		w.joined++
		t.fn(t.ctx)
	} else {
		for t.state.Load() != taskDone {
			runtime.Gosched()
		}
	}
	v := t.panicked
	t.fn, t.ctx, t.panicked = nil, nil, nil
	t.state.Store(taskIdle)
	if v != nil {
		panic(v)
	}
}

func (w *KernelWorker) loop() {
	defer close(w.exited)
	for {
		t, ok := w.next()
		if !ok {
			return
		}
		// A queued pointer can outlive its tail: the join may have run
		// it, and the PE may have queued its next tail since. Whichever
		// tail the task holds now, only a queued one is taken.
		if t.state.CompareAndSwap(taskQueued, taskClaimed) {
			w.run(t)
			w.ran.Add(1)
		}
	}
}

// next receives the worker's next task, polling the queue for kernelSpin
// before it blocks. ok is false once Stop has closed the queue and the
// worker has drained it.
func (w *KernelWorker) next() (t *kernelTask, ok bool) {
	var since time.Time
	for i := 0; ; i++ {
		select {
		case t, ok = <-w.tasks:
			return t, ok
		default:
		}
		if i == 0 {
			since = time.Now()
		} else if i%64 == 0 && time.Since(since) > kernelSpin {
			t, ok = <-w.tasks
			return t, ok
		}
	}
}

// run runs a claimed tail, keeping a panic for the join to raise.
func (w *KernelWorker) run(t *kernelTask) {
	defer func() {
		t.panicked = recover()
		t.state.Store(taskDone)
	}()
	t.fn(t.ctx)
}
