package sim

// Proc is the handle a simulated goroutine uses to interact with the
// kernel. Every function spawned with Kernel.Go or Proc.Go receives its
// own Proc; a Proc must only be used by the goroutine it was given to,
// and only until that goroutine's function returns.
//
// A Proc names its task as an event handle names its event: the struct
// and the incarnation, gen, it was made for. The kernel recycles the
// struct of a task that returns, so a Proc kept past that point would
// otherwise park, sleep or wait as the struct's next task; the check
// in task turns that into a panic.
type Proc struct {
	t   *task
	gen uint64
}

// task returns the task p belongs to, and panics if that task has
// returned.
func (p *Proc) task() *task {
	t := p.t
	if t.gen != p.gen {
		panic("sim: a Proc was used after its task returned")
	}
	return t
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.t.k.now }

// Go spawns a child simulated goroutine. The child starts at the current
// virtual time once the scheduler next runs it.
func (p *Proc) Go(name string, fn func(p *Proc)) { p.t.k.Go(name, fn) }

// park blocks the calling task until another component wakes it via
// kernel.wake: it marks the task blocked and switches back to Run,
// which switches here again once the task is at the head of the ready
// queue.
//
// A task that has been killed (run ended by Stop, a deadlock report or
// another task's panic) re-panics instead of blocking: this lets deferred
// cleanups that use blocking primitives (defer conn.Close(p)) unwind
// instantly rather than hang on a wake that will never come.
func (p *Proc) park() {
	t := p.task()
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
// is not killed, no other task is ready, the run is not stopped and
// every queued event comes strictly after the wake, Run would pop this
// very wake-up next and resume the task at once: Sleep does that in
// place — it takes the seq the wake-up would have taken, moves the
// clock, counts the event and the switch — and returns. A horizon is a
// queued stop event (Kernel.Stop), so a wake at or past it parks.
// Nothing else could have run in between, so the dispatch order, Stats
// and every QueueLen a task or callback can observe are those of the
// park; only the two coroutine switches are gone (DESIGN decisions 1
// and 11).
func (p *Proc) Sleep(d Duration) {
	t := p.task()
	k := t.k
	at := k.now
	if d > 0 {
		at = at.Add(d)
	}
	if !t.killed && len(k.ready) == 0 && !k.stopped &&
		(k.events.len() == 0 || at < k.events.peek().at) {
		k.seq++
		k.now = at
		k.stats.Events++
		k.stats.Switches++
		return
	}
	k.push(at, t.timer())
	p.park()
}

// Yield lets every other currently-runnable task proceed before this one
// continues, without advancing the clock.
func (p *Proc) Yield() { p.Sleep(0) }
