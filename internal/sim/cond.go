package sim

// Cond is a virtual-time condition variable: processes park on it with
// Wait and are released in FIFO order by Signal or all at once by
// Broadcast. Unlike package sync's Cond there is no associated mutex —
// simulated goroutines already execute one at a time, so state guarded
// by a Cond can be read and written without further locking.
//
// A Cond is a FIFO of the parked tasks, linked through the waiter each
// task embeds: two pointers, and the zero value is ready to use. It
// holds no kernel; Signal reaches the kernel through the task it wakes.
// A task parks on at most one Cond at a time, so a wait allocates
// nothing, and the two Conds of a connection end's receive state (its
// inbox's and its handshake's), which vnet pools, cost 16 bytes apiece.
// A Cond must not be copied once a task may wait on it: the waiter
// records its address.
//
// Every Cond operation requires the execution token (a simulated
// goroutine or an event callback); the waiter list is kernel state
// under the serialization discipline documented on Kernel.
type Cond struct {
	head, tail *task
}

// condWaiter is one task's registration on a Cond, embedded in the task
// and reused across waits. The timer is tracked as a raw (event, gen)
// pair rather than an Event handle so that a timed wait allocates
// nothing; its callback is the task's one timer callback (task.timer).
type condWaiter struct {
	c        *Cond // the Cond the task is linked on; nil when on none
	next     *task // the task behind this one on c
	timerEv  *event
	timerGen uint64
}

// Wait parks the calling process until Signal or Broadcast releases it.
func (c *Cond) Wait(p *Proc) { c.wait(p, 0) }

// WaitTimeout parks the calling process until it is signalled or d of
// virtual time elapses. It reports whether the wakeup was a signal
// (true) rather than a timeout (false). d <= 0 waits forever.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool { return c.wait(p, d) }

func (c *Cond) wait(p *Proc, d Duration) bool {
	t := p.task()
	if t.killed {
		// An unwinding task is still linked on the Cond it was parked
		// on when the run ended; park would panic anyway, and linking
		// it a second time would corrupt both lists.
		panic(killedPanic{})
	}
	w := &t.cw
	t.timedOut, w.timerEv = false, nil
	c.link(t)
	if d > 0 {
		k := t.k
		ev := k.push(k.now.Add(d), t.timer())
		w.timerEv, w.timerGen = ev, ev.gen
	}
	p.park()
	return !t.timedOut
}

// link appends t to the back of the waiter list. A task still linked
// from an earlier wait would corrupt both lists; only a bug in the
// wake paths, which unlink a waiter before it runs again, can leave
// one.
//
//p2p:token
func (c *Cond) link(t *task) {
	if t.cw.c != nil {
		panic("sim: task " + t.name + " waits on a Cond while still linked on one")
	}
	t.cw.c, t.cw.next = c, nil
	if c.tail == nil {
		c.head = t
	} else {
		c.tail.cw.next = t
	}
	c.tail = t
}

// unlink takes t, which must be linked on c, off the waiter list.
//
//p2p:token
func (c *Cond) unlink(t *task) {
	var prev *task
	for x := c.head; x != t; x = x.cw.next {
		prev = x
	}
	if prev == nil {
		c.head = t.cw.next
	} else {
		prev.cw.next = t.cw.next
	}
	if c.tail == t {
		c.tail = prev
	}
	t.cw.c, t.cw.next = nil, nil
}

// Signal releases the longest-waiting process, if any. It may be called
// from simulated goroutines or from event callbacks.
//
//p2p:token
func (c *Cond) Signal() {
	t := c.head
	if t == nil {
		return
	}
	c.head = t.cw.next
	if c.head == nil {
		c.tail = nil
	}
	w := &t.cw
	w.c, w.next = nil, nil
	k := t.k
	// A still-pending timer must not fire for a waiter that has been
	// signalled; the gen check keeps a stale (event, gen) pair off the
	// recycled struct's new occupant.
	if w.timerEv != nil {
		k.cancel(w.timerEv, w.timerGen)
	}
	k.wake(t)
}

// Broadcast releases every waiting process.
//
//p2p:token
func (c *Cond) Broadcast() {
	for c.head != nil {
		c.Signal()
	}
}

// Idle reports whether no process is parked on c.
//
//p2p:token
func (c *Cond) Idle() bool { return c.head == nil }
