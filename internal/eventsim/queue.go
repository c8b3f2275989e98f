package eventsim

// entry is one scheduled callback: run fn at virtual time at. seq breaks
// ties between equal times in booking order, which is what makes equal-
// time events run FIFO and every run reproducible.
type entry struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders entries by (at, seq).
func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// queue is a 4-ary min-heap of entries ordered by (at, seq). Entries are
// stored by value, so booking an event copies three words into the slice
// instead of boxing a pointer through an interface; a 4-ary layout halves
// the tree depth of a binary heap, and the four children of a node share
// a cache line or two.
type queue []entry

// push adds e to the heap. The backing array is reused, so steady-state
// pushes do not allocate.
//
//dhl:hotpath
func (q *queue) push(e entry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the earliest entry; the heap must be non-empty.
//
//dhl:hotpath
func (q *queue) pop() entry {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = entry{} // drop the callback reference for the collector
	h = h[:last]
	*q = h
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < last; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
