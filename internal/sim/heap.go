package sim

// eventHeap is a hand-specialized 4-ary min-heap of *event ordered by
// (at, from, seq). It replaces the earlier container/heap adapter: the
// generic heap boxes every element through interface{} on Push/Pop and
// calls the comparator through an interface table, both of which showed
// up in the per-event hot path of every simulation. A 4-ary layout also
// halves the tree depth, trading a few extra comparisons per level for
// fewer cache misses on sift-down.
//
// Pop order is fully determined by the (at, from, seq) total order, so
// swapping the heap shape cannot change which event fires next —
// simulations stay bit-identical to the binary-heap implementation.
type eventHeap struct {
	ev []*event
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.ev) }

// push inserts ev, sifting up by moving parents down and writing the new
// event once at its final slot (fewer stores than pairwise swaps).
func (h *eventHeap) push(ev *event) {
	h.ev = append(h.ev, ev)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h.ev[p]) {
			break
		}
		h.ev[i] = h.ev[p]
		i = p
	}
	h.ev[i] = ev
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *event {
	min := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = nil
	h.ev = h.ev[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return min
}

// siftDown places ev (logically at the root) into its final position.
func (h *eventHeap) siftDown(ev *event) {
	s := h.ev
	n := len(s)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(s[c], s[m]) {
				m = c
			}
		}
		if !eventLess(s[m], ev) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = ev
}
