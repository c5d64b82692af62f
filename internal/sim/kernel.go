// Package sim implements a deterministic virtual-time simulation kernel.
//
// The kernel multiplexes many simulated processes onto a single logical
// timeline. Each process is a coroutine that Kernel.Run resumes and that
// switches straight back to Run when it parks, so exactly one of them
// executes at any real instant; the virtual clock advances only when
// every one is parked. This yields bit-for-bit reproducible runs for a
// fixed seed, which is the property the P2PLab paper calls "allowing
// reproduction of experiments".
//
// The two core abstractions are:
//
//   - Kernel: the event queue, the clock and the run loop.
//   - Proc: the handle a simulated goroutine uses to block (Sleep, Wait),
//     spawn children (Go) and observe time (Now).
//
// Blocking primitives (Cond, Chan, Semaphore) are built on top of the
// park/wake mechanism and are safe to use only from simulated goroutines.
//
// Determinism is a per-kernel property: one kernel is one serialized
// timeline, and nothing inside it may run concurrently. Experiment
// sweeps therefore parallelize across kernels — many independent
// Kernel instances, one per worker (see repro/internal/exp's sweep
// engine) — never within one.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Time is an absolute instant on the virtual timeline, in nanoseconds
// since the start of the simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// event is a scheduled callback. Callbacks run inside the kernel loop and
// must not block; they typically wake parked tasks or schedule more events.
//
// event structs are pooled on a per-kernel free list: on dispatch or
// cancellation the struct leaves the queue and is recycled for the next
// schedule. gen distinguishes incarnations, so a handle whose gen still
// matches refers to a queued event, and a stale one held across
// recycling can no longer cancel or reschedule the new occupant. The
// dispatch key (at, seq) lives in the event's queue slot.
type event struct {
	fn   func()
	next *event // free-list link
	idx  int    // position in the queue, maintained by its sifts
	gen  uint64 // incarnation counter, bumped on recycle
}

// task is the kernel-side state of one simulated goroutine.
type task struct {
	name    string
	fn      func(p *Proc)
	proc    Proc       // the handle fn receives; proc.t points back here
	co      *coro      // carries the task from its first activation to its return
	blocked bool       // parked, waiting for a wake
	killed  bool       // task should unwind instead of resuming
	cw      condWaiter // reusable Cond registration (one park at a time)

	prev, next *task // Kernel.live ring, in spawn order
}

// killedPanic is the sentinel used to unwind tasks that are still parked
// when a run ends (horizon reached, Stop called, deadlock reported, or
// another task panicked).
type killedPanic struct{}

// coro is a coroutine that runs tasks, one after another: Run switches
// to it with next, and the task it carries switches back with yield
// when it parks or returns. Both are direct switches between two
// goroutines (iter.Pull), not a trip through the Go scheduler.
type coro struct {
	t     *task
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// maxIdleCoros bounds the coroutines kept for reuse between tasks.
// Measured with `go run ./bench -workload sweep-overlay`, parent 571.5 MB
// alloc_mb (bound 3 %) and 110 MB peak_rss_mb (bound 10 %): without
// reuse every spawn pays iter.Pull's ≈ 350 B of closures, 632 MB and
// 115–116 MB; with an unbounded list the stacks of every spawn burst
// stay resident until Run returns, 537 MB and 125 MB; at 32, 559 MB and
// 105–121 MB. DESIGN decision 11 has the pairs.
const maxIdleCoros = 32

// Kernel is a deterministic discrete-event simulation kernel.
// Create one with New, spawn the root process with Go, then call Run.
//
// # Serialization discipline
//
// All kernel state is owned by whoever holds the execution token: the
// one running simulated goroutine, the event callback being dispatched,
// or Run itself between the two. Run is the only dispatcher — it
// switches to a task and the task switches back — so the token never
// passes between two parties that could run at once, and nothing here
// takes a lock. Functions marked //p2p:token require the token. The
// rest of the API (At, After, Go, Stop, Event.Cancel, Event.Reschedule,
// Now, Snapshot, QueueLen) may also be used while the kernel is idle:
// before Run is called and after it has returned. No goroutine may
// touch a kernel while another is inside its Run.
type Kernel struct {
	now    Time
	seq    uint64
	events eventQueue
	free   *event  // recycled event structs
	ready  []*task // runnable tasks, FIFO
	live   task    // sentinel of the ring of unfinished tasks, in spawn order
	idle   []*coro // coroutines whose task returned, at most maxIdleCoros

	rng     *rand.Rand
	stopped bool
	limit   Time // 0 = no limit
	stats   Stats
}

// Stats counts kernel activity over a run; useful for throughput
// benchmarks and for validating experiment scale.
type Stats struct {
	Events   uint64 // callbacks dispatched
	Switches uint64 // task activations
	Spawns   uint64 // tasks created
}

// New returns a kernel whose random source is seeded with seed.
// The same seed and workload reproduce the same run exactly.
func New(seed int64) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(seed))}
	k.live.prev, k.live.next = &k.live, &k.live
	return k
}

// Now returns the current virtual time. Like every observer here it
// needs the token or an idle kernel.
func (k *Kernel) Now() Time { return k.now }

// LoopNow is Now for code that holds the execution token — a running
// simulated goroutine or an event callback dispatched by the loop —
// and says so to p2pvet.
//
//p2p:token
func (k *Kernel) LoopNow() Time { return k.now }

// Snapshot returns a copy of the kernel activity counters.
func (k *Kernel) Snapshot() Stats { return k.stats }

// QueueLen returns the number of pending events, which is the number
// of live timers: cancelled events leave the queue at once. A gauge,
// so not part of Stats.
func (k *Kernel) QueueLen() int { return len(k.events) }

// Rand returns the kernel's deterministic random source. Because simulated
// goroutines execute one at a time, sharing one source is race-free and
// deterministic.
//
//p2p:token
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Go spawns a new simulated goroutine executing fn. It may be called
// before Run (to create the initial population) or from a running
// simulated goroutine. The child starts at the current virtual time,
// after the caller next yields. Spawning is bookkeeping only: the task
// gets a coroutine when Run first activates it, so a kernel that is
// never run starts nothing.
//
//p2p:tokenentry callers hold the token or the kernel is idle; fn runs only once Run resumes the task
//p2p:tokenarg
func (k *Kernel) Go(name string, fn func(p *Proc)) {
	t := &task{name: name, fn: fn}
	t.proc = Proc{k: k, t: t}
	t.prev, t.next = k.live.prev, &k.live
	t.prev.next, k.live.prev = t, t
	k.stats.Spawns++
	k.ready = append(k.ready, t)
}

// resume switches to t and returns when t parks or returns. A task's
// first activation gives it a coroutine, an idle one if there is one;
// when the task returns, its coroutine goes back on the idle list, or
// ends if the list is full. Coroutines are made here, under Run, and
// not in Go: the runtime requires a coroutine's creator and its resumer
// to agree on LockOSThread state, and Run is the only resumer.
//
//p2p:token
func (k *Kernel) resume(t *task) {
	c := t.co
	if c == nil {
		if n := len(k.idle); n > 0 {
			c, k.idle = k.idle[n-1], k.idle[:n-1]
		} else {
			c = newCoro()
		}
		c.t, t.co = t, c
	}
	c.next()
	if c.t != nil {
		return // parked
	}
	// A Proc someone kept, or a Cond's spent waiter slot, can outlive the
	// task; neither may pin what the task's closure captured.
	t.fn, t.co = nil, nil
	t.prev.next, t.next.prev = t.next, t.prev
	t.prev, t.next = nil, nil
	if len(k.idle) < maxIdleCoros {
		k.idle = append(k.idle, c)
	} else {
		c.stop()
	}
}

// newCoro returns a coroutine that runs the task it is handed to its
// end, clears c.t to say so, and waits to be handed the next. A panic
// in task code — a killed task's sentinel included — ends the coroutine
// and leaves through next. Every frame under a task's own comes out of
// the 1 120 usable bytes of its first 2 KiB stack, so the body does
// nothing else and keeps only c live (a 24-byte frame): with the
// recover and the idle-list push in here, two thirds of the tasks of a
// 1 024-node gossip cell ended up on 4 KiB stacks (DESIGN decision 11).
//
//p2p:token
func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.t.fn(&c.t.proc)
			c.t = nil
			if !c.yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// At schedules fn to run at instant at (clamped to now if in the past).
// fn executes inside the kernel loop and must not block. It returns a
// handle that can cancel the event before it fires.
//
//p2p:tokenentry callers hold the token or the kernel is idle
//p2p:tokenarg
func (k *Kernel) At(at Time, fn func()) *Event {
	ev := k.push(at, fn)
	return &Event{k: k, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time.
//
//p2p:tokenentry callers hold the token or the kernel is idle
//p2p:tokenarg
func (k *Kernel) After(d Duration, fn func()) *Event {
	return k.At(k.now.Add(d), fn)
}

// Schedule is At without the cancellable handle. The event struct itself
// is pooled, so for callers that never cancel — the per-packet hop and
// delivery events of the network layer — this path schedules with zero
// allocations, where At allocates one Event handle per call.
//
// Schedule may only be called from code holding the execution token (a
// running simulated goroutine or an event callback) and says so to
// p2pvet; set-up code that runs before Run uses At.
//
//p2p:token
//p2p:tokenarg
func (k *Kernel) Schedule(at Time, fn func()) {
	k.push(at, fn)
}

// push queues fn at instant at on an event struct taken off the free
// list (or a new one). Callers hold the execution token, or the kernel
// is idle (At and After before Run).
//
//p2p:token
func (k *Kernel) push(at Time, fn func()) *event {
	ev := k.free
	if ev != nil {
		k.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.fn = fn
	k.events.push(k.slotAt(at, ev))
	return ev
}

// slotAt keys ev for instant at (clamped to now if in the past), at the
// back of that instant's FIFO order. Same serialization contract as
// push.
//
//p2p:token
func (k *Kernel) slotAt(at Time, ev *event) slot {
	if at < k.now {
		at = k.now
	}
	s := slot{at: at, seq: k.seq, ev: ev}
	k.seq++
	return s
}

// next takes the earliest event off the queue, advances the clock to it
// and returns its callback for the caller to run. If that event lies
// past the horizon it instead discards every pending event, leaves the
// clock at the horizon and reports false. The queue must not be empty;
// same serialization contract as push.
//
//p2p:token
func (k *Kernel) next() (fn func(), ok bool) {
	if k.limit > 0 && k.events[0].at > k.limit {
		k.now = k.limit
		for _, s := range k.events {
			k.recycle(s.ev)
		}
		k.events = k.events[:0]
		return nil, false
	}
	s := k.events.pop()
	k.now = s.at
	k.stats.Events++
	fn = s.ev.fn
	k.recycle(s.ev)
	return fn, true
}

// cancel removes the pending event that the handle (ev, gen) refers to
// and recycles its struct; it reports false, touching nothing, when the
// handle is stale. Same serialization contract as push.
//
//p2p:token
func (k *Kernel) cancel(ev *event, gen uint64) bool {
	if ev.gen != gen {
		return false
	}
	k.events.remove(ev.idx)
	k.recycle(ev)
	return true
}

// recycle returns a dispatched or cancelled event struct to the free
// list. Same serialization contract as push; ev must no longer be
// queued.
//
//p2p:token
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.next = k.free
	k.free = ev
}

// Event is a cancellable handle to a scheduled callback.
type Event struct {
	k   *Kernel
	ev  *event
	gen uint64 // incarnation the handle refers to
}

// Cancel prevents the callback from running if it has not fired yet.
// It reports whether the cancellation took effect.
//
//p2p:tokenentry same contract as At
func (e *Event) Cancel() bool {
	if e == nil || e.ev == nil {
		return false
	}
	return e.k.cancel(e.ev, e.gen)
}

// Reschedule moves a still-pending callback to instant at (clamped to
// now if in the past), preserving the callback but taking a fresh
// position in the same-instant FIFO order, exactly as if the event had
// been cancelled and scheduled anew. It reports whether the move took
// effect; a fired or cancelled event is not revived.
//
//p2p:tokenentry same contract as At
func (e *Event) Reschedule(at Time) bool {
	if e == nil || e.ev == nil {
		return false
	}
	k := e.k
	if e.ev.gen != e.gen {
		return false
	}
	k.events.fix(e.ev.idx, k.slotAt(at, e.ev))
	return true
}

// DeadlockError is returned by Run when simulated goroutines remain
// parked but no event can ever wake them.
type DeadlockError struct {
	Now     Time
	Blocked []string // names of parked tasks
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d task(s) parked forever: %s",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// Run executes the simulation until no work remains: every task has
// exited and the event queue is empty (events scheduled beyond RunUntil's
// limit are discarded). It returns a *DeadlockError if tasks are parked
// with no pending events, and nil otherwise. Run must be called from a
// non-simulated goroutine. However it ends — completion, Stop, the
// horizon, a deadlock, or a panic in task code, which reaches Run's
// caller — every unfinished task has been unwound and no goroutine is
// left behind.
//
// This loop is the scheduling policy's one statement: the head of the
// ready FIFO, else the earliest (time, seq) event, else done.
//
//p2p:tokenentry Run holds the token whenever no task does: it lends it to a task in resume and has it back when resume returns
func (k *Kernel) Run() error {
	defer k.teardown()
	for !k.stopped {
		// 1. Run every ready task to its next park point, in FIFO order.
		if len(k.ready) > 0 {
			t := k.ready[0]
			copy(k.ready, k.ready[1:])
			k.ready = k.ready[:len(k.ready)-1]
			k.stats.Switches++
			k.resume(t)
			continue
		}
		// 2. Advance the clock to the next event.
		if len(k.events) > 0 {
			fn, ok := k.next()
			if !ok {
				return nil
			}
			fn()
			continue
		}
		// 3. Nothing runnable, nothing scheduled.
		var names []string
		for t := k.live.next; t != &k.live; t = t.next {
			if t.blocked {
				names = append(names, t.name)
			}
		}
		if names != nil {
			sort.Strings(names)
			return &DeadlockError{Now: k.now, Blocked: names}
		}
		return nil
	}
	return nil
}

// teardown unwinds every remaining task (parked or ready) and ends the
// idle coroutines, so a finished run leaves no goroutine behind.
// Deferred cleanups (conn.Close and the like) run while a killed task
// unwinds, so tasks are unwound strictly one at a time — ready tasks in
// FIFO order, then parked tasks in spawn order — and a wake or a spawn
// made by an unwinding task has no effect.
//
//p2p:token
func (k *Kernel) teardown() {
	victims := k.ready
	k.ready = nil
	for t := k.live.next; t != &k.live; t = t.next {
		if t.blocked {
			t.blocked = false
			victims = append(victims, t)
		}
	}
	for _, t := range victims {
		if t.co != nil { // else never activated: there is nothing to unwind
			k.kill(t)
		}
	}
	k.ready = nil
	k.live.prev, k.live.next = &k.live, &k.live
	for _, c := range k.idle {
		c.stop()
	}
	k.idle = nil
}

// kill resumes t with its killed flag set: park panics with a sentinel
// instead of returning, the task's deferred calls run, and the sentinel
// arrives here. Anything else that arrives is a real panic from a
// deferred cleanup and goes on to Run's caller.
//
//p2p:token
func (k *Kernel) kill(t *task) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				panic(r)
			}
		}
	}()
	t.killed = true
	k.resume(t)
}

// RunUntil executes the simulation like Run but stops once virtual time
// would pass limit. Tasks still parked at the horizon are abandoned (the
// usual way to end an open-ended experiment such as a swarm download).
func (k *Kernel) RunUntil(limit Time) error {
	k.limit = limit
	err := k.Run()
	// A horizon-limited run treats parked-forever tasks as "experiment
	// over", not an error, as long as the horizon was actually reached.
	if _, ok := err.(*DeadlockError); ok && k.now >= limit {
		return nil
	}
	return err
}

// Stop aborts the run loop at the next scheduling point. Call it from
// event callbacks or simulated goroutines.
func (k *Kernel) Stop() { k.stopped = true }

// wake moves a parked task to the ready queue. Callers hold the
// execution token (wakes are triggered by running tasks and event
// callbacks only).
//
//p2p:token
func (k *Kernel) wake(t *task) {
	if !t.blocked {
		return
	}
	t.blocked = false
	k.ready = append(k.ready, t)
}
