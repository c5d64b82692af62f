package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"unsafe"
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

// Incarnation returns how many tasks ran on the calling task's struct
// before this one: above 0 when Go took it off the free list.
func (p *Proc) Incarnation() uint64 { return p.gen }

// CheckFresh reports what the calling task, at the start of its
// function, carries over from an earlier incarnation of its struct: a
// reused task starts unblocked, unkilled, not timed out, on no Cond,
// and with no timer of its callback's queued.
func (p *Proc) CheckFresh() error {
	t := p.task()
	switch {
	case t.blocked:
		return errors.New("starts blocked")
	case t.killed:
		return errors.New("starts killed")
	case t.timedOut:
		return errors.New("starts timed out")
	case t.cw != (condWaiter{}):
		return fmt.Errorf("starts registered on a Cond: %+v", t.cw)
	case t.timerFn != nil && t.k.events.holds(t.timerFn):
		return errors.New("starts with its timer callback queued")
	}
	return nil
}

// holds reports whether fn, by closure identity, is a queued callback.
func (q *eventQueue) holds(fn func()) bool {
	id := func(f func()) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&f)) }
	if h := q.head.ev; h != nil && id(h.fn) == id(fn) {
		return true
	}
	for _, s := range q.heap {
		if id(s.ev.fn) == id(fn) {
			return true
		}
	}
	return false
}

// MaxIdleCoros is the kernel's bound on idle coroutines whose stack
// has moved.
const MaxIdleCoros = maxIdleCoros

// IdleCoros returns the coroutines on the kernel's idle list, in list
// order, and how many of them no longer run on their first stack.
func (k *Kernel) IdleCoros() ([]*coro, int) { return slices.Clone(k.idle), k.grown }

// Recurse calls itself through at least n bytes of frames and returns.
// A task that calls it with n of 4 KiB or more leaves the first stack
// of its coroutine for a grown one, which it keeps after the call.
//
//go:noinline
func Recurse(n int) byte {
	var pad [256]byte
	pad[n%len(pad)] = byte(n)
	if n <= len(pad) {
		return pad[n%len(pad)]
	}
	return Recurse(n-len(pad)) ^ pad[n%len(pad)]
}

// Rand returns the kernel's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.t.k.rng }

// CheckQueue reports the first broken invariant of the kernel's event
// queue, or nil: heap order holds, the head comes before the heap's
// root, and every queued event records its own position — its heap
// index, or −1 for the head.
func (k *Kernel) CheckQueue() error { return k.events.check() }

// CheckHead is CheckQueue's constant-time part: the head records −1
// and comes before the heap's root.
func (k *Kernel) CheckHead() error { return k.events.checkHead() }

func (q *eventQueue) check() error {
	for i, s := range q.heap {
		if s.ev.idx != i {
			return fmt.Errorf("heap slot %d (at=%v seq=%d): event records idx %d", i, s.at, s.seq, s.ev.idx)
		}
		if p := (i - 1) / 4; i > 0 && s.before(q.heap[p]) {
			return fmt.Errorf("heap slot %d (at=%v seq=%d) orders before its parent %d", i, s.at, s.seq, p)
		}
	}
	return q.checkHead()
}

func (q *eventQueue) checkHead() error {
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
