package sim

import (
	"errors"
	"math"
)

// ErrClosed is returned when sending on or receiving from a closed Chan
// once it has drained.
var ErrClosed = errors.New("sim: channel closed")

// ErrFull is returned by Send on a bounded Chan that holds its capacity.
var ErrFull = errors.New("sim: channel full")

// Chan is a virtual-time message channel with an optional capacity bound,
// analogous to a Go channel but scheduled by the kernel. A capacity of 0
// means unbounded. Only receivers park: a send never blocks, and on a
// full bounded channel it is refused (TrySend reports false, Send
// returns ErrFull). The one bounded channel, a listener's backlog,
// refuses a connection when full rather than waiting for room.
//
// The buffer is a growable ring: the earlier sliding-slice version
// (buf = buf[1:] on receive) marched the slice down its backing array,
// forcing a fresh allocation every len(buf) operations even at a steady
// queue depth of one — measurably the second-largest allocation source
// in large swarm runs. The ring starts at one slot and doubles: most
// channels are a per-RPC connection's inbox (chord and gossip dial one
// connection per message), which carries one or two messages in its
// life.
//
// The receivers' Cond is a zero-value field, the counters are int32
// and the receivers' count a uint16, so a Chan is 56 bytes and holds no
// kernel: the zero Chan is an unbounded channel ready to use, and a
// struct that embeds one by value (vnet's pooled receive state) makes
// no further object for it. A Chan must not be copied once a task may
// wait on it: a waiter records its Cond's address. Reset hands a
// drained channel, ring and all, to a new owner.
//
// All operations require the execution token (they are only meaningful
// from simulated goroutines or event callbacks), which is all that
// orders access to the ring and flags.
type Chan[T any] struct {
	buf    []T   // ring storage; element i is buf[(head+i)%len(buf)]
	head   int32 // index of the oldest element
	n      int32 // number of buffered elements
	cap    int32
	closed bool
	// recvs counts the tasks inside a receive's wait: parked, or woken
	// and not yet run again. It fills the padding after closed.
	recvs uint16

	notEmpty Cond
}

// NewChan returns a channel of the given capacity; 0 means unbounded.
// The capacity must fit in an int32. A Chan reaches its kernel through
// the tasks that wait on it, so k is not kept.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if int(int32(capacity)) != capacity {
		panic("sim: Chan capacity out of int32 range")
	}
	return &Chan[T]{cap: int32(capacity)}
}

// push appends v to the ring, growing the storage when full.
//
//p2p:token
func (c *Chan[T]) push(v T) {
	n := int(c.n)
	if n == len(c.buf) {
		if n > math.MaxInt32/2 {
			panic("sim: Chan holds more than 2^30 items")
		}
		grown := make([]T, max(1, 2*n))
		for i := 0; i < n; i++ {
			grown[i] = c.buf[(int(c.head)+i)%n]
		}
		c.buf, c.head = grown, 0
	}
	c.buf[(int(c.head)+n)%len(c.buf)] = v
	c.n++
}

// pop removes and returns the oldest element, zeroing its slot so the
// ring does not pin dead payloads. Callers guarantee c.n > 0.
//
//p2p:token
func (c *Chan[T]) pop() T {
	var zero T
	v := c.buf[c.head]
	c.buf[c.head] = zero
	c.head = int32((int(c.head) + 1) % len(c.buf))
	c.n--
	return v
}

// Send enqueues v from a task. It never parks: it returns ErrClosed
// on a closed channel and ErrFull on a full bounded one.
func (c *Chan[T]) Send(p *Proc, v T) error {
	if c.closed {
		return ErrClosed
	}
	if !c.TrySend(v) {
		return ErrFull
	}
	return nil
}

// TrySend enqueues v; it reports whether the item was accepted (false
// when full or closed).
//
//p2p:token
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed || (c.cap > 0 && c.n >= c.cap) {
		return false
	}
	c.push(v)
	c.notEmpty.Signal()
	return true
}

// TryRecv dequeues the oldest item without blocking; ok=false when the
// buffer is empty.
//
//p2p:token
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.n == 0 {
		return v, false
	}
	return c.pop(), true
}

// Recv dequeues the oldest item, parking while the channel is empty.
// It returns ErrClosed once the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, error) {
	var zero T
	for {
		if c.n > 0 {
			return c.pop(), nil
		}
		if c.closed {
			return zero, ErrClosed
		}
		c.enter()
		c.notEmpty.Wait(p)
		c.recvs--
	}
}

// RecvTimeout is Recv with a virtual-time deadline. ok=false with a nil
// error means the deadline expired. d <= 0 waits forever.
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (v T, ok bool, err error) {
	deadline := p.Now().Add(d)
	for {
		if c.n > 0 {
			return c.pop(), true, nil
		}
		if c.closed {
			return v, false, ErrClosed
		}
		var remaining Duration // 0 waits forever
		if d > 0 {
			if remaining = deadline.Sub(p.Now()); remaining <= 0 {
				return v, false, nil
			}
		}
		c.enter()
		woken := c.notEmpty.WaitTimeout(p, remaining)
		c.recvs--
		if !woken {
			return v, false, nil
		}
	}
}

// enter counts a receiver about to wait on notEmpty; it is uncounted
// when it runs again. A task killed in the wait never is, so its
// channel is never Reset.
func (c *Chan[T]) enter() {
	if c.recvs == math.MaxUint16 {
		panic("sim: more than 65535 tasks receive on one Chan")
	}
	c.recvs++
}

// Close marks the channel closed. Buffered items remain receivable;
// blocked receivers are released.
//
//p2p:token
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.notEmpty.Broadcast()
}

// Reset readies a drained channel for a new owner: when it buffers no
// item and no task is inside a receive on it, Reset reopens it and
// reports true; otherwise it changes nothing and reports false. A
// receiver that Close woke and that has not run again still counts, so
// a channel is never handed on under a task that will read from it.
// The ring keeps its storage.
//
//p2p:token
func (c *Chan[T]) Reset() bool {
	if c.n != 0 || c.recvs != 0 {
		return false
	}
	c.closed = false
	return true
}

// Idle reports whether the channel is what Reset leaves: open, empty,
// and with no task inside a receive on it.
//
//p2p:token
func (c *Chan[T]) Idle() bool { return !c.closed && c.n == 0 && c.recvs == 0 }
