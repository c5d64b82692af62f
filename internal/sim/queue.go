package sim

// slot is one pending event in the queue: its dispatch key and the
// pooled struct carrying its callback. The key lives in the slot, not
// behind the pointer, so the comparisons of a sift touch only the heap
// array; keyed through the pointer, each comparison is a dependent load
// and a 3 000-peer swarm spends half again as long popping (DESIGN.md
// decision 3).
type slot struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	ev  *event
}

func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is the kernel's pending-event store: a 4-ary min-heap
// ordered by (at, seq). Every event records its own position
// (event.idx), so a cancelled timer is removed and a rescheduled one
// moved in place: the queue never holds a dead event and its length is
// the number of live timers.
type eventQueue []slot

// push adds s to the queue.
//
//p2p:token
func (q *eventQueue) push(s slot) {
	*q = append(*q, s)
	q.up(len(*q)-1, s)
}

// pop removes and returns the minimum; the queue must not be empty.
//
//p2p:token
func (q *eventQueue) pop() slot {
	top := (*q)[0]
	q.remove(0)
	return top
}

// remove deletes the slot at index i, refilling the hole with the last
// slot.
//
//p2p:token
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	*q = h[:n]
	if i < n {
		h[:n].fix(i, last)
	}
}

// fix stores s at index i, whose previous occupant is gone or being
// re-keyed, and sifts it whichever way restores heap order.
//
//p2p:token
func (q eventQueue) fix(i int, s slot) {
	if i > 0 && s.before(q[(i-1)/4]) {
		q.up(i, s)
	} else {
		q.down(i, s)
	}
}

// up sifts s from the hole at i towards the root.
//
//p2p:token
func (q eventQueue) up(i int, s slot) {
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.idx = i
		i = p
	}
	q[i] = s
	s.ev.idx = i
}

// down sifts s from the hole at i towards the leaves.
//
//p2p:token
func (q eventQueue) down(i int, s slot) {
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		m := c
		for j, end := c+1, min(c+4, len(q)); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(s) {
			break
		}
		q[i] = q[m]
		q[i].ev.idx = i
		i = m
	}
	q[i] = s
	s.ev.idx = i
}
