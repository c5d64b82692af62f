package sim

import (
	"fmt"
	"math/rand"
)

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return int(c.n) }

// Len reports how many processes are currently parked on the Cond.
func (c *Cond) Len() int {
	n := 0
	for t := c.head; t != nil; t = t.cw.next {
		n++
	}
	return n
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.t.name }

// Rand returns the kernel's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.k.rng }

// CheckQueue reports the first broken invariant of the kernel's event
// queue, or nil: heap order holds, the head comes before the heap's
// root, and every queued event records its own position — its heap
// index, or −1 for the head.
func (k *Kernel) CheckQueue() error { return k.events.check() }

func (q *eventQueue) check() error {
	for i, s := range q.heap {
		if s.ev.idx != i {
			return fmt.Errorf("heap slot %d (at=%v seq=%d): event records idx %d", i, s.at, s.seq, s.ev.idx)
		}
		if p := (i - 1) / 4; i > 0 && s.before(q.heap[p]) {
			return fmt.Errorf("heap slot %d (at=%v seq=%d) orders before its parent %d", i, s.at, s.seq, p)
		}
	}
	h := q.head
	if h.ev == nil {
		return nil
	}
	if h.ev.idx != -1 {
		return fmt.Errorf("head (at=%v seq=%d): event records idx %d, want -1", h.at, h.seq, h.ev.idx)
	}
	if len(q.heap) > 0 && !h.before(q.heap[0]) {
		r := q.heap[0]
		return fmt.Errorf("head (at=%v seq=%d) does not order before the heap root (at=%v seq=%d)", h.at, h.seq, r.at, r.seq)
	}
	return nil
}
