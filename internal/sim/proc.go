package sim

// Proc is the handle a simulated goroutine uses to interact with the
// kernel. Every function spawned with Kernel.Go or Proc.Go receives its
// own Proc; a Proc must only be used by the goroutine it was given to.
type Proc struct {
	k *Kernel
	t *task
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Go spawns a child simulated goroutine. The child starts at the current
// virtual time once the scheduler next runs it.
func (p *Proc) Go(name string, fn func(p *Proc)) { p.k.Go(name, fn) }

// park blocks the calling task until another component wakes it via
// kernel.wake: it marks the task blocked and switches back to Run,
// which switches here again once the task is at the head of the ready
// queue.
//
// A task that has been killed (run ended at a horizon, Stop, or after a
// deadlock report) re-panics instead of blocking: this lets deferred
// cleanups that use blocking primitives (defer conn.Close(p)) unwind
// instantly rather than hang on a wake that will never come.
func (p *Proc) park() {
	t := p.t
	if t.killed {
		panic(killedPanic{})
	}
	t.blocked = true
	t.co.yield(struct{}{})
	if t.killed {
		panic(killedPanic{})
	}
}

// Sleep suspends the process for d of virtual time. Non-positive
// durations yield the processor to other runnable tasks at the same
// instant (a deterministic round-robin yield).
//
// A sleeper that is its own next dispatch does not park. When the task
// is not killed, no other task is ready, the run is not stopped, the
// wake lies inside the horizon and every queued event comes strictly
// after it, Run would pop this very wake-up next and resume the task
// at once: Sleep does that in place — it takes the seq the wake-up
// would have taken, moves the clock, counts the event and the switch —
// and returns. Nothing else could have run in between, so the dispatch
// order, Stats and every QueueLen a task or callback can observe are
// those of the park; only the two coroutine switches are gone (DESIGN
// decisions 1 and 11).
func (p *Proc) Sleep(d Duration) {
	k := p.k
	at := k.now
	if d > 0 {
		at = at.Add(d)
	}
	if !p.t.killed && len(k.ready) == 0 && !k.stopped &&
		(k.limit == 0 || at <= k.limit) &&
		(k.events.len() == 0 || at < k.events.peek().at) {
		k.seq++
		k.now = at
		k.stats.Events++
		k.stats.Switches++
		return
	}
	k.push(at, p.t.timer())
	p.park()
}

// Yield lets every other currently-runnable task proceed before this one
// continues, without advancing the clock.
func (p *Proc) Yield() { p.Sleep(0) }
