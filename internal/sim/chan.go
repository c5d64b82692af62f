package sim

import "errors"

// ErrClosed is returned when sending on or receiving from a closed Chan
// once it has drained.
var ErrClosed = errors.New("sim: channel closed")

// Chan is a virtual-time message channel with an optional capacity bound,
// analogous to a Go channel but scheduled by the kernel. A capacity of 0
// means unbounded (senders never block).
//
// The buffer is a growable ring: the earlier sliding-slice version
// (buf = buf[1:] on receive) marched the slice down its backing array,
// forcing a fresh allocation every len(buf) operations even at a steady
// queue depth of one — measurably the second-largest allocation source
// in large swarm runs.
//
// All operations require the execution token (they are only meaningful
// from simulated goroutines or event callbacks), which is all that
// orders access to the ring and flags. On unbounded channels (cap == 0)
// nothing ever waits on notFull, so those signals are skipped entirely.
type Chan[T any] struct {
	k      *Kernel
	buf    []T // ring storage; element i is buf[(head+i)%len(buf)]
	head   int // index of the oldest element
	n      int // number of buffered elements
	cap    int
	closed bool

	notEmpty *Cond
	notFull  *Cond
}

// NewChan returns a channel bound to kernel k. capacity 0 = unbounded.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	return &Chan[T]{
		k:        k,
		cap:      capacity,
		notEmpty: NewCond(k),
		notFull:  NewCond(k),
	}
}

// push appends v to the ring, growing the storage when full.
//
//p2p:token
func (c *Chan[T]) push(v T) {
	if c.n == len(c.buf) {
		grown := make([]T, max(4, 2*len(c.buf)))
		for i := 0; i < c.n; i++ {
			grown[i] = c.buf[(c.head+i)%len(c.buf)]
		}
		c.buf, c.head = grown, 0
	}
	c.buf[(c.head+c.n)%len(c.buf)] = v
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
	c.head = (c.head + 1) % len(c.buf)
	c.n--
	return v
}

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return c.n }

// Send enqueues v, parking while the channel is full. It returns
// ErrClosed if the channel is (or becomes) closed.
func (c *Chan[T]) Send(p *Proc, v T) error {
	for {
		if c.closed {
			return ErrClosed
		}
		if c.cap == 0 || c.n < c.cap {
			c.push(v)
			c.notEmpty.Signal()
			return nil
		}
		c.notFull.Wait(p)
	}
}

// TrySend enqueues v without blocking; it reports whether the item was
// accepted (false when full or closed).
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
	v = c.pop()
	if c.cap > 0 {
		c.notFull.Signal()
	}
	return v, true
}

// Recv dequeues the oldest item, parking while the channel is empty.
// It returns ErrClosed once the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, error) {
	var zero T
	for {
		if c.n > 0 {
			v := c.pop()
			if c.cap > 0 {
				c.notFull.Signal()
			}
			return v, nil
		}
		if c.closed {
			return zero, ErrClosed
		}
		c.notEmpty.Wait(p)
	}
}

// RecvTimeout is Recv with a virtual-time deadline. ok=false with a nil
// error means the deadline expired. d <= 0 waits forever.
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (v T, ok bool, err error) {
	deadline := p.Now().Add(d)
	for {
		if c.n > 0 {
			v = c.pop()
			if c.cap > 0 {
				c.notFull.Signal()
			}
			return v, true, nil
		}
		if c.closed {
			return v, false, ErrClosed
		}
		if d <= 0 {
			c.notEmpty.Wait(p)
			continue
		}
		remaining := deadline.Sub(p.Now())
		if remaining <= 0 {
			return v, false, nil
		}
		if !c.notEmpty.WaitTimeout(p, remaining) {
			return v, false, nil
		}
	}
}

// Close marks the channel closed. Buffered items remain receivable;
// blocked receivers and senders are released.
//
//p2p:token
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.notEmpty.Broadcast()
	if c.cap > 0 {
		c.notFull.Broadcast()
	}
}

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }
