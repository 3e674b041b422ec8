package sim

// arity is the fan-out of the event heap. BenchmarkEventQueue could not
// tell 2-ary from 4-ary apart on a shared host at any depth; 4 is kept
// because the heap is half as deep (a dos-flood run holds ~50 pending
// events: 3 levels instead of 6) and a node's children are adjacent in
// memory.
const arity = 4

// entry is one pending event in the queue. Its (at, seq) key is stored
// inline, so ordering the heap never dereferences the event.
type entry struct {
	at  Time
	seq uint64 // tie-break so equal-time events run FIFO
	e   *event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is an arity-ary min-heap of entries ordered by (at, seq).
// Sequence numbers are unique, so the order is total: events pop in the
// same sequence whatever the shape of the heap.
type eventQueue []entry

// push adds x, sifting it up from the new leaf.
func (q *eventQueue) push(x entry) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the minimum entry. The queue must not be
// empty.
func (q *eventQueue) pop() entry {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		// Sift last down from the root: move the least child up while
		// it orders before last.
		i := 0
		for {
			c := i*arity + 1
			if c >= n {
				break
			}
			m := c
			for j, end := c+1, min(c+arity, n); j < end; j++ {
				if h[j].before(h[m]) {
					m = j
				}
			}
			if !h[m].before(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}
