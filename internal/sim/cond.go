package sim

// Cond is a virtual-time condition variable: processes park on it with
// Wait and are released in FIFO order by Signal or all at once by
// Broadcast. Unlike package sync's Cond there is no associated mutex —
// simulated goroutines already execute one at a time, so state guarded
// by a Cond can be read and written without further locking.
//
// Every Cond operation requires the execution token (a simulated
// goroutine or an event callback); the waiter list is kernel state
// under the serialization discipline documented on Kernel.
type Cond struct {
	k       *Kernel
	waiters []*condWaiter
}

// condWaiter is one task's registration on a Cond. A task parks on at
// most one Cond at a time, so the waiter is embedded in the task struct
// and reused across waits instead of being allocated per call — Wait is
// the park path of every Chan operation and was a top-ten allocation
// source in swarm runs. The timer is tracked as a raw (event, gen) pair
// rather than an Event handle for the same reason.
type condWaiter struct {
	t        *task
	c        *Cond // cond currently waited on; for timeout removal
	fired    bool  // woken by Signal/Broadcast (vs timeout)
	timedOut bool
	timerEv  *event
	timerGen uint64
	// timeoutFn is the timer callback, bound once per task on the first
	// timed wait and reused afterwards.
	timeoutFn func()
}

// NewCond returns a condition variable bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks the calling process until Signal or Broadcast releases it.
func (c *Cond) Wait(p *Proc) { c.wait(p, 0) }

// WaitTimeout parks the calling process until it is signalled or d of
// virtual time elapses. It reports whether the wakeup was a signal
// (true) rather than a timeout (false). d <= 0 waits forever.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool { return c.wait(p, d) }

func (c *Cond) wait(p *Proc, d Duration) bool {
	k := c.k
	w := &p.t.cw
	w.t = p.t
	w.c = c
	w.fired, w.timedOut, w.timerEv = false, false, nil
	c.waiters = append(c.waiters, w)
	if d > 0 {
		if w.timeoutFn == nil {
			// Timer callbacks run holding the execution token, like
			// every other access to the waiter.
			w.timeoutFn = func() {
				if w.fired {
					return
				}
				w.fired = true
				w.timedOut = true
				w.c.remove(w)
				k.wake(w.t)
			}
		}
		ev := k.push(k.now.Add(d), w.timeoutFn)
		w.timerEv, w.timerGen = ev, ev.gen
	}
	p.park()
	return !w.timedOut
}

// remove unlinks w from the waiter list.
//
//p2p:token
func (c *Cond) remove(w *condWaiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal releases the longest-waiting process, if any. It may be called
// from simulated goroutines or from event callbacks.
//
//p2p:token
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		// Pop by shifting, not by reslicing: c.waiters[1:] would drop the
		// front of the backing array, and a one-waiter Cond — every
		// mailbox Recv — would allocate a fresh one on its next Wait.
		w := c.waiters[0]
		n := copy(c.waiters, c.waiters[1:])
		c.waiters[n] = nil
		c.waiters = c.waiters[:n]
		if w.fired {
			continue
		}
		w.fired = true
		// A still-pending timer must not fire for a waiter that has been
		// signalled — and possibly reused since; the gen check keeps a
		// stale waiter off a recycled struct's new occupant.
		if w.timerEv != nil {
			c.k.cancel(w.timerEv, w.timerGen)
		}
		c.k.wake(w.t)
		return
	}
}

// Broadcast releases every waiting process.
//
//p2p:token
func (c *Cond) Broadcast() {
	for len(c.waiters) > 0 {
		c.Signal()
	}
}
