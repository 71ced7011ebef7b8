package charm

import (
	"cloudlb/internal/sim"
)

// Ctx is the capability handed to an entry method. Effects requested
// through it (sends, contributions, AtSync, Done) are collected during the
// handler and take effect when the entry's CPU burst completes, matching
// the paper's runtime where messages leave at entry-method boundaries.
type Ctx struct {
	rts  *RTS
	pe   *pe
	self *chareRec

	sends    []outMsg
	contribs []contribution
	atSync   bool
	done     bool
}

type outMsg struct {
	to    ChareID
	data  interface{}
	bytes int
}

// Now returns the current virtual time (as seen by the executing PE's
// shard engine — the only clock guaranteed exact mid-window).
func (c *Ctx) Now() sim.Time { return c.pe.eng.Now() }

// Self returns the executing chare's ID.
func (c *Ctx) Self() ChareID { return c.self.id }

// PE returns the index of the PE executing this entry.
func (c *Ctx) PE() int { return c.pe.index }

// NumPEs returns the runtime's PE count.
func (c *Ctx) NumPEs() int { return len(c.rts.pes) }

// ArraySize returns the size of a chare array.
func (c *Ctx) ArraySize(name string) int { return c.rts.ArraySize(name) }

// Send queues a message of the given payload size to another chare. It is
// transmitted when this entry method completes.
func (c *Ctx) Send(to ChareID, data interface{}, bytes int) {
	if bytes < 0 {
		panic("charm: negative message size")
	}
	c.sends = append(c.sends, outMsg{to: to, data: data, bytes: bytes})
}

// Broadcast queues a message of the given per-destination payload size to
// every element of an array (including the sender's own array element, if
// it belongs to it). Like Send, transmission happens when the entry
// completes; each destination receives its own message over the
// interconnect.
func (c *Ctx) Broadcast(array string, data interface{}, bytes int) {
	n := c.rts.ArraySize(array)
	for i := 0; i < n; i++ {
		c.Send(ChareID{Array: array, Index: i}, data, bytes)
	}
}

// Defer hands the entry's numeric tail to the scenario's kernel worker
// (Config.Kernels): fn runs on the worker, or on the event thread if it
// reaches the join first, and the runtime joins it when the entry's CPU
// burst completes, before it applies the entry's effects. Recv still
// returns the entry's cost at once, so the cost must not depend on what
// fn computes. fn touches only this chare's state and the payloads
// delivered to it, calls only Send (on the Ctx it is handed), and never
// reads a clock. A second Defer in one entry first joins the first, so
// the tails run in order. With no worker, fn runs here and now.
func (c *Ctx) Defer(fn func(*Ctx)) {
	t := c.pe.task
	if t == nil {
		fn(c)
		return
	}
	w := c.rts.cfg.Kernels
	if t.state.Load() != taskIdle {
		w.join(t)
	}
	t.fn, t.ctx = fn, c
	t.state.Store(taskQueued)
	w.push(t)
}

// AtSync tells the runtime this chare reached the load balancing point.
// The chare must not send or expect application messages until it receives
// the built-in Resume message.
func (c *Ctx) AtSync() { c.atSync = true }

// Done marks this chare's work complete. When every chare is done the
// runtime records the finish time.
func (c *Ctx) Done() { c.done = true }

// Contribute adds this chare's value to an array-wide reduction identified
// by tag. When every chare of the array has contributed, every chare
// receives a ReductionResult message.
func (c *Ctx) Contribute(tag string, value float64, op ReduceOp) {
	c.contribs = append(c.contribs, contribution{tag: tag, value: value, op: op})
}
