package sim

import "math/bits"

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

// lt is before as 0 or 1, computed without a branch: (at, seq) is
// compared as one 128-bit number, the borrow of the seq subtraction
// carried into the at subtraction, whose sign is the answer. Every key
// has at ≥ 0 (slotAt clamps to now), so the subtraction cannot
// overflow. down's min-of-four picks written with before compile to
// jumps, which mispredict on keys in no useful order (DESIGN.md
// decision 3).
func (a slot) lt(b slot) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	return int(uint64(a.at-b.at-Time(borrow)) >> 63)
}

// eventQueue is the kernel's pending-event store, ordered by (at, seq):
// a cached minimum, head, in front of a 4-ary min-heap of the rest.
// Every event records its own position (event.idx; −1 for the head),
// so a cancelled timer is removed and a rescheduled one moved in place:
// the queue never holds a dead event and its length is the number of
// live timers. A push that beats the current minimum — a deliver or a
// wake at the instant being dispatched, most often — takes the head and
// never enters the heap, and its pop costs no sift.
type eventQueue struct {
	head slot // the minimum when head.ev != nil; every heap slot orders after it
	heap eventHeap
}

// len returns the number of queued events.
//
//p2p:token
func (q *eventQueue) len() int {
	if q.head.ev != nil {
		return len(q.heap) + 1
	}
	return len(q.heap)
}

// peek returns the minimum without removing it; the queue must not be
// empty.
//
//p2p:token
func (q *eventQueue) peek() slot {
	if q.head.ev != nil {
		return q.head
	}
	return q.heap[0]
}

// push adds s to the queue: as the head when it comes before the
// current minimum — a head it beats moves into the heap — else into the
// heap.
//
//p2p:token
func (q *eventQueue) push(s slot) {
	if q.head.ev == nil {
		if len(q.heap) > 0 && !s.before(q.heap[0]) {
			q.heap.push(s)
			return
		}
	} else if s.before(q.head) {
		q.heap.push(q.head)
	} else {
		q.heap.push(s)
		return
	}
	q.head = s
	s.ev.idx = -1
}

// pop removes and returns the minimum; the queue must not be empty.
//
//p2p:token
func (q *eventQueue) pop() slot {
	if s := q.head; s.ev != nil {
		q.head = slot{}
		return s
	}
	return q.heap.pop()
}

// remove deletes the event at position i (−1 is the head).
//
//p2p:token
func (q *eventQueue) remove(i int) {
	if i < 0 {
		q.head = slot{}
		return
	}
	q.heap.remove(i)
}

// fix re-keys the event at position i (−1 is the head) to s. A head is
// pushed anew; a heap slot is sifted, and if it now comes before the
// head, the head moves into the heap.
//
//p2p:token
func (q *eventQueue) fix(i int, s slot) {
	if i < 0 {
		q.head = slot{}
		q.push(s)
		return
	}
	q.heap.fix(i, s)
	if q.head.ev != nil && s.before(q.head) {
		q.heap.push(q.head)
		q.head = slot{}
	}
}

// eventHeap is the 4-ary min-heap behind the head, ordered by (at, seq).
type eventHeap []slot

// push adds s to the heap. A push runs under every timed park of a
// task, so the rare growth of the array is kept out of its frame.
//
//p2p:token
func (q *eventHeap) push(s slot) {
	if len(*q) == cap(*q) {
		q.grow()
	}
	*q = (*q)[:len(*q)+1]
	q.up(len(*q)-1, s)
}

// grow makes room for one more slot, as append would.
//
//p2p:token
//go:noinline
func (q *eventHeap) grow() {
	*q = append(*q, slot{})[:len(*q)]
}

// pop removes and returns the minimum; the heap must not be empty.
//
//p2p:token
func (q *eventHeap) pop() slot {
	top := (*q)[0]
	q.remove(0)
	return top
}

// remove deletes the slot at index i, refilling the hole with the last
// slot.
//
//p2p:token
func (q *eventHeap) remove(i int) {
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
func (q eventHeap) fix(i int, s slot) {
	if i > 0 && s.before(q[(i-1)/4]) {
		q.up(i, s)
	} else {
		q.down(i, s)
	}
}

// up sifts s from the hole at i towards the root.
//
//p2p:token
func (q eventHeap) up(i int, s slot) {
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

// down sifts s from the hole at i towards the leaves. A full family of
// four picks its smallest child by arithmetic on lt — the pair minima,
// then the smaller of the two — so the only branch per level is the
// loop's exit; a partial last family keeps the comparison loop.
//
//p2p:token
func (q eventHeap) down(i int, s slot) {
	n := len(q)
	for {
		c := 4*i + 1
		var m int
		if c+3 < n {
			a := c + q[c+1].lt(q[c])
			b := c + 2 + q[c+3].lt(q[c+2])
			m = a + (b-a)&-q[b].lt(q[a])
		} else if c < n {
			m = c
			for j := c + 1; j < n; j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
		} else {
			break
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
