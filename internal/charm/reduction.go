package charm

import (
	"fmt"
	"math"
)

// Reductions flow along a k-ary spanning tree of PEs (parent(i) =
// (i-1)/k), as in Charm++: each PE folds its local chares' contributions
// together with the partials of its subtree and sends exactly one partial
// to its parent once its subtree is complete; the root then broadcasts
// the result down the same tree and every PE delivers it to its local
// chares of the contributing array.
//
// Subtree completion is detected by count: the runtime knows how many
// array elements live in each subtree (placements only change inside LB
// steps, when no reduction is in flight), so empty subtrees simply expect
// zero contributions and send nothing — no deadlock on element-less PEs.

// ReduceOp combines contributions of an array-wide reduction.
type ReduceOp int

// Reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

func (op ReduceOp) combine(a, b float64) float64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceMax:
		return math.Max(a, b)
	case ReduceMin:
		return math.Min(a, b)
	}
	panic(fmt.Sprintf("charm: unknown reduce op %d", op))
}

func (op ReduceOp) identity() float64 {
	switch op {
	case ReduceSum:
		return 0
	case ReduceMax:
		return math.Inf(-1)
	case ReduceMin:
		return math.Inf(1)
	}
	panic(fmt.Sprintf("charm: unknown reduce op %d", op))
}

type contribution struct {
	tag   string
	value float64
	op    ReduceOp
}

type redKey struct {
	array string
	tag   string
}

type redAcc struct {
	count int
	value float64
	op    ReduceOp
}

const (
	contribMsgBytes = 48
	resultMsgBytes  = 48
)

// treeParent returns the PE's parent in the reduction tree (-1 for the
// root).
func (r *RTS) treeParent(pe int) int {
	if pe == 0 {
		return -1
	}
	return (pe - 1) / r.arity
}

// treeChildren returns the PE's children in the reduction tree. The tree
// shape is fixed for the life of the runtime, so the lists are memoized
// (a non-nil empty slice marks a computed leaf).
func (r *RTS) treeChildren(pe int) []int {
	if out := r.childrenMemo[pe]; out != nil {
		return out
	}
	k := r.arity
	out := []int{}
	for c := pe*k + 1; c <= pe*k+k && c < len(r.pes); c++ {
		out = append(out, c)
	}
	r.childrenMemo[pe] = out
	return out
}

// subtreeExpected counts the array elements hosted in the subtree rooted
// at this PE. Placements are stable between LB steps, so the value is
// memoized until the next resume.
func (p *pe) subtreeExpected(array string) int {
	if p.subtreeMemo == nil {
		p.subtreeMemo = make(map[string]int)
	}
	if n, ok := p.subtreeMemo[array]; ok {
		return n
	}
	n := p.countLocal(array)
	for _, c := range p.rts.treeChildren(p.index) {
		n += p.rts.pes[c].subtreeExpected(array)
	}
	p.subtreeMemo[array] = n
	return n
}

func (p *pe) countLocal(array string) int {
	n := 0
	for _, rec := range p.roster {
		if rec.id.Array == array {
			n++
		}
	}
	return n
}

// contribute folds one chare's contribution into this PE's accumulator
// and forwards the subtree partial when complete.
func (p *pe) contribute(self ChareID, c contribution) {
	p.foldReduction(redKey{array: self.Array, tag: c.tag}, c.value, c.op, 1)
}

// foldReduction merges a partial (local contribution or child subtree)
// into the PE's accumulator for the reduction, and ships the combined
// partial up the tree once the subtree is complete.
func (p *pe) foldReduction(k redKey, val float64, op ReduceOp, count int) {
	if p.reds == nil {
		p.reds = make(map[redKey]*redAcc)
	}
	acc, ok := p.reds[k]
	if !ok {
		acc = &redAcc{op: op, value: op.identity()}
		p.reds[k] = acc
	}
	if acc.op != op {
		panic(fmt.Sprintf("charm: reduction %v used with different ops", k))
	}
	acc.value = acc.op.combine(acc.value, val)
	acc.count += count
	expected := p.subtreeExpected(k.array)
	if acc.count > expected {
		panic(fmt.Sprintf("charm: reduction %v over-contributed on PE %d (%d > %d)", k, p.index, acc.count, expected))
	}
	if acc.count < expected {
		return
	}
	delete(p.reds, k)
	parent := p.rts.treeParent(p.index)
	if parent < 0 {
		// Root: the reduction is complete; broadcast down the tree.
		p.rts.completeReduction(k, ReductionResult{Tag: k.tag, Value: acc.value})
		return
	}
	pp := p.rts.pes[parent]
	val, op, cnt := acc.value, acc.op, acc.count
	p.rts.cfg.Net.Send(p.core.ID, pp.core.ID, contribMsgBytes, func() {
		pp.enqueueSys(func() { pp.foldReduction(k, val, op, cnt) })
	})
}

// completeReduction delivers the result at the root and forwards it down
// the tree.
func (r *RTS) completeReduction(k redKey, result ReductionResult) {
	r.pes[0].deliverReduction(k, result)
}

// deliverReduction hands the result to this PE's local chares of the
// array and forwards it to the PE's tree children.
func (p *pe) deliverReduction(k redKey, res ReductionResult) {
	for _, ci := range p.rts.treeChildren(p.index) {
		child := p.rts.pes[ci]
		p.rts.cfg.Net.Send(p.core.ID, child.core.ID, resultMsgBytes, func() {
			child.enqueueSys(func() { child.deliverReduction(k, res) })
		})
	}
	// The roster is sorted by (Array, Index), so filtering it by array
	// yields exactly the Index order the delivery loop always used.
	for _, rec := range p.roster {
		if rec.id.Array == k.array {
			p.enqueueApp(rec, res)
		}
	}
	p.pump()
}
