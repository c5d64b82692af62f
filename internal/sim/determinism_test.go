package sim_test

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// determinismWorkload is a deliberately messy mix of everything the
// event queue must order: parked goroutines with tie-heavy sleep
// durations, timers that get cancelled and rescheduled mid-run, and
// far-future events queued behind the stop event that ends the run.
// Every observable step is written to a trace log.
func determinismWorkload(seed int64) (string, sim.Stats, error) {
	k := sim.New(seed)
	lg := trace.New(0)

	// Tie-heavy sleepers: coarse sleep quanta force many same-instant
	// wakeups whose relative order is pure (at, seq) FIFO.
	for i := 0; i < 8; i++ {
		k.Go(fmt.Sprintf("worker-%d", i), func(p *sim.Proc) {
			for j := 0; j < 60; j++ {
				p.Sleep(time.Duration(p.Rand().Intn(4)) * time.Millisecond)
				lg.Add(p.Now(), "step", p.Name(), "j=%d", j)
			}
		})
	}

	// Timers scheduled on a coarse lattice (more ties), a third of which
	// are later cancelled and a third rescheduled.
	var timers []*sim.Event
	for i := 0; i < 48; i++ {
		i := i
		at := sim.Time(i%6) * sim.Time(20*time.Millisecond)
		timers = append(timers, k.At(at, func() {
			lg.Add(k.Now(), "timer", "", "i=%d", i)
		}))
	}
	k.After(30*time.Millisecond, func() {
		lg.Add(k.Now(), "perturb", "", "cancel+reschedule")
		for i, ev := range timers {
			switch i % 3 {
			case 0:
				ev.Cancel()
			case 1:
				ev.Reschedule(k.Now().Add(time.Duration(i) * time.Millisecond))
			}
		}
	})

	// Far-future events, behind the stop: they must never fire.
	for i := 0; i < 16; i++ {
		i := i
		k.At(sim.Time(400*24*time.Hour)+sim.Time(i), func() {
			lg.Add(k.Now(), "far", "", "i=%d", i)
		})
	}

	k.At(sim.Time(5*time.Second), k.Stop)
	err := k.Run()
	var buf bytes.Buffer
	if rerr := lg.Render(&buf); rerr != nil {
		return "", sim.Stats{}, rerr
	}
	return buf.String(), k.Snapshot(), err
}

// TestRepeatedRunsAreIdentical is the baseline reproducibility check:
// the same seed gives the same bytes run over run.
func TestRepeatedRunsAreIdentical(t *testing.T) {
	a, as, err := determinismWorkload(99)
	if err != nil {
		t.Fatal(err)
	}
	b, bs, err := determinismWorkload(99)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || as != bs {
		t.Error("repeated run diverged")
	}
	if !strings.Contains(a, "perturb") {
		t.Fatal("workload never reached the cancel/reschedule phase")
	}
	if strings.Contains(a, "far") {
		t.Fatal("far-future event fired before the stop")
	}
}

// timerModel is the reference the kernel's timer API is checked
// against: the pending timers in a binary heap from container/heap,
// ordered by (at, seq) and indexed by timer id, with its own clock and
// seq counter. It shares no code with the kernel's 4-ary queue and
// mirrors the documented contract only — schedule times clamp to now,
// every successful schedule or reschedule takes the next seq, a
// cancelled or fired timer is gone. Every operation is O(log n) in the
// live timers.
type timerModel struct {
	now     sim.Time
	seq     uint64
	pending modelHeap
	byID    map[int]*modelTimer
}

type modelTimer struct {
	at  sim.Time
	seq uint64
	id  int
	idx int // position in pending
}

// modelHeap is the container/heap of pending timers.
type modelHeap []*modelTimer

func (h modelHeap) Len() int { return len(h) }
func (h modelHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h modelHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *modelHeap) Push(x any) {
	tm := x.(*modelTimer)
	tm.idx = len(*h)
	*h = append(*h, tm)
}
func (h *modelHeap) Pop() any {
	old := *h
	tm := old[len(old)-1]
	*h = old[:len(old)-1]
	return tm
}

func (m *timerModel) schedule(at sim.Time, id int) {
	if at < m.now {
		at = m.now
	}
	if m.byID == nil {
		m.byID = make(map[int]*modelTimer)
	}
	tm := &modelTimer{at: at, seq: m.seq, id: id}
	heap.Push(&m.pending, tm)
	m.byID[id] = tm
	m.seq++
}

// cancel removes timer id and reports whether it was pending.
func (m *timerModel) cancel(id int) bool {
	tm, ok := m.byID[id]
	if !ok {
		return false
	}
	heap.Remove(&m.pending, tm.idx)
	delete(m.byID, id)
	return true
}

// live reports whether timer id is still to fire.
func (m *timerModel) live(id int) bool {
	_, ok := m.byID[id]
	return ok
}

func (m *timerModel) reschedule(id int, at sim.Time) bool {
	if !m.cancel(id) {
		return false
	}
	m.schedule(at, id)
	return true
}

// next removes and returns the earliest pending timer by (at, seq),
// advancing the model clock to it.
func (m *timerModel) next() modelTimer {
	tm := heap.Pop(&m.pending).(*modelTimer)
	delete(m.byID, tm.id)
	m.now = tm.at
	return *tm
}

// timerScript runs a kernel and a timerModel in lock step through one
// seeded random script. Every dispatched callback first checks it is
// the timer the model dispatches next, at the model's instant and
// inside the horizon, then performs a few random operations on both
// sides; after every operation the kernel's queue length must equal
// the model's live timer count.
//
// A few sleeper tasks run beside the timers: each loops on Sleep of a
// random delay — zero, the past, a tie on the lattice, past the
// horizon — which the model queues as one more timer, and checks its
// wake the way a callback checks its dispatch. Now and then a sleeper
// spawns another first, so a Sleep also meets a ready task. Whether a
// Sleep parks or returns in place, its wake order, instant and count
// must be the model's. One more operation spawns a short task that
// sleeps once and returns: the kernel recycles its struct, and later
// short tasks run on it mid-script.
//
// Besides the handles At and After return, the script owns a few
// handles the way a pooled struct does and re-arms them with Arm once
// their timer has fired or been cancelled. Each re-arm leaves a copy of
// the spent value in handles, so Cancel and Reschedule keep being tried
// on stale caller-owned handles too.
type timerScript struct {
	t       *testing.T
	k       *sim.Kernel
	m       timerModel
	rng     *rand.Rand
	handles []handle
	owned   [4]sim.Event
	ownedAt [4]int // index in handles of each owned handle's entry; -1 before its first Arm
	timers  int    // ids issued
	budget  int    // operations left before callbacks go quiet
	fired   uint64

	unchecked int // operations since the queue's invariants were last checked

	sleepers int    // sleeper tasks spawned
	shorts   int    // short tasks spawned
	started  int    // tasks that have run, of either kind
	reused   int    // short tasks that ran on a recycled struct
	burst    int    // tasks of the pending burst not yet woken
	maxIdle  int    // the longest idle coroutine list a short task saw
	switches uint64 // task activations: starts and wakes
}

// scriptHorizon is the instant of the stop event that ends
// runTimerScript's run. The stop is queued first, so a timer due at the
// horizon comes after it and never fires; the model holds the stop as
// timer stopID.
const (
	scriptHorizon = sim.Time(24 * time.Hour)
	stopID        = -1
)

// checkEvery is how many operations a script runs between full walks
// of the queue (CheckQueue). A walk costs the live timer count, which
// grows to thousands in a long script, so a walk after every operation
// would make the script quadratic. Every operation still checks
// the head against the heap's root (CheckHead, constant time): a fix
// that leaves the head in front of a smaller root is often repaired by
// the next push before any dispatch could show it. A sift that loses
// an event's index leaves it lost until the event moves again, so a
// walk every few dozen operations catches that.
const checkEvery = 32

type handle struct {
	h  *sim.Event
	id int
}

// victim picks a handle to cancel or move: half the time a recent one,
// likely still pending, otherwise any ever issued — fired, cancelled,
// or one whose struct has since been recycled for another timer.
func (s *timerScript) victim() *handle {
	n := len(s.handles)
	if n == 0 {
		return nil
	}
	if recent := 64; s.rng.Intn(2) == 0 && n > recent {
		return &s.handles[n-1-s.rng.Intn(recent)]
	}
	return &s.handles[s.rng.Intn(n)]
}

func (s *timerScript) callback(id int) func() {
	return func() { s.dispatched(id) }
}

// dispatched checks that timer id, just fired or woken, is the one the
// model dispatches next (fire), then performs a few random operations.
func (s *timerScript) dispatched(id int) {
	s.fire(id)
	for n := 1 + s.rng.Intn(4); n > 0; n-- {
		s.step()
	}
}

// fire checks that timer id, just fired or woken, is the one the model
// dispatches next, at the model's instant and inside the horizon.
func (s *timerScript) fire(id int) {
	want := s.m.next()
	if want.id != id || want.at != s.k.Now() {
		s.t.Fatalf("dispatch %d: kernel fired timer %d at %v, model expects timer %d at %v",
			s.fired, id, s.k.Now(), want.id, want.at)
	}
	if s.k.Now() > scriptHorizon {
		s.t.Fatalf("dispatch %d: timer %d fired at %v, past the %v horizon", s.fired, id, s.k.Now(), scriptHorizon)
	}
	s.fired++
}

// spawn starts a sleeper with goFn, Kernel.Go or Proc.Go. The sleeper
// must first run at the instant it was spawned, and before any sleeper
// wakes: a spawned task is ready, and the ready run before any event.
func (s *timerScript) spawn(goFn func(string, func(*sim.Proc))) {
	s.sleepers++
	born := s.m.now
	goFn("sleeper", func(p *sim.Proc) {
		s.started++
		s.switches++
		if p.Now() != born {
			s.t.Fatalf("sleeper spawned at %v first ran at %v", born, p.Now())
		}
		for s.budget > 0 {
			if s.sleepers < 8 && s.rng.Intn(8) == 0 {
				s.spawn(p.Go)
			}
			id := s.timers
			s.timers++
			at := s.randomAt()
			for at > s.m.now.Add(time.Hour) && s.rng.Intn(16) != 0 {
				at = s.randomAt() // outlive a few hundred wakes before the horizon
			}
			s.m.schedule(at, id)
			p.Sleep(at.Sub(s.m.now))
			s.switches++
			if s.started != s.sleepers+s.shorts {
				s.t.Fatalf("a sleeper woke at %v before %d spawned tasks ran", p.Now(), s.sleepers+s.shorts-s.started)
			}
			s.dispatched(id)
		}
		// The budget is spent: sleep past the horizon, never to wake.
		at := scriptHorizon + 1 + sim.Time(s.rng.Intn(int(time.Hour)))
		s.m.schedule(at, s.timers)
		s.timers++
		p.Sleep(at.Sub(s.m.now))
		s.t.Fatalf("sleeper woke at %v, past the %v horizon", p.Now(), scriptHorizon)
	})
}

// noBurst is spawnShort's wake-up for a task of no burst.
const noBurst sim.Time = -1

// spawnBurst starts 33–64 short tasks, about half of them deep, that
// all sleep to one instant less than 200 µs ahead and return together.
// The idle list then holds more coroutines than the kernel keeps of
// grown ones: it keeps every coroutine on its first stack and ends the
// grown ones past its bound, and later spawns run on both kinds.
func (s *timerScript) spawnBurst() {
	at := s.m.now.Add(time.Duration(1 + s.rng.Intn(int(200*time.Microsecond))))
	s.burst = 33 + s.rng.Intn(32)
	for i := s.burst; i > 0; i-- {
		s.spawnShort(s.rng.Intn(2) == 0, at)
	}
}

// spawnShort starts a task that makes one Sleep to a model timer and
// returns, so the kernel recycles its struct for a later spawn. It must
// first run at the instant it was spawned, and start as a fresh task
// (Proc.CheckFresh) whether or not its struct is recycled. A deep one
// recurses through 8 KiB of frames first, so it returns on a grown
// stack. One of a burst sleeps to the burst's instant, burstAt; any
// other, to a random one, and it performs operations when it wakes.
func (s *timerScript) spawnShort(deep bool, burstAt sim.Time) {
	s.shorts++
	born := s.m.now
	s.k.Go("short", func(p *sim.Proc) {
		s.started++
		s.switches++
		if p.Now() != born {
			s.t.Fatalf("short task spawned at %v first ran at %v", born, p.Now())
		}
		if err := p.CheckFresh(); err != nil {
			s.t.Fatalf("short task at %v (incarnation %d): %v", p.Now(), p.Incarnation(), err)
		}
		if p.Incarnation() > 0 {
			s.reused++
		}
		if idle, _ := s.k.IdleCoros(); len(idle) > s.maxIdle {
			s.maxIdle = len(idle)
		}
		if deep {
			sim.Recurse(8 << 10)
		}
		id := s.timers
		s.timers++
		at := burstAt
		if at == noBurst {
			at = s.randomAt()
			for at > s.m.now.Add(time.Hour) && s.rng.Intn(16) != 0 {
				at = s.randomAt() // return, as a rule, to hand the struct on
			}
		}
		s.m.schedule(at, id)
		p.Sleep(at.Sub(s.m.now))
		s.switches++
		if burstAt == noBurst {
			s.dispatched(id)
			return
		}
		// The operations dispatched performs run deep enough to grow
		// any task's stack: a task of a burst only checks its wake-up,
		// so that the shallow ones return on their first stack.
		s.burst--
		s.fire(id)
	})
}

// randomAt draws an instant from the shapes the queue must order:
// the current instant, the past (clamped), a lattice that makes ties,
// a dense near-now cluster, and a far-future tail partly beyond the
// horizon.
func (s *timerScript) randomAt() sim.Time {
	now := s.m.now
	switch s.rng.Intn(8) {
	case 0:
		return now
	case 1:
		return now - sim.Time(s.rng.Intn(int(time.Second)))
	case 2:
		return (now/sim.Time(time.Millisecond) + sim.Time(1+s.rng.Intn(3))) * sim.Time(time.Millisecond)
	case 3:
		return now.Add(time.Duration(1+s.rng.Intn(48)) * time.Hour)
	default:
		return now.Add(time.Duration(s.rng.Intn(int(200 * time.Microsecond))))
	}
}

// step performs one random operation on the kernel and the model.
func (s *timerScript) step() {
	if s.budget == 0 {
		return
	}
	s.budget--
	id := s.timers
	switch op := s.rng.Intn(14); {
	case op < 2:
		at := s.randomAt()
		s.handles = append(s.handles, handle{s.k.At(at, s.callback(id)), id})
		s.m.schedule(at, id)
		s.timers++
	case op < 4:
		d := time.Duration(s.rng.Intn(int(time.Millisecond))) - 100*time.Microsecond
		s.handles = append(s.handles, handle{s.k.After(d, s.callback(id)), id})
		s.m.schedule(s.m.now.Add(d), id)
		s.timers++
	case op < 6 && s.fired > 0: // Schedule needs the token: callbacks only
		at := s.randomAt()
		s.k.Schedule(at, s.callback(id))
		s.m.schedule(at, id)
		s.timers++
	case op == 12:
		s.spawnShort(false, noBurst)
	case op == 13 && s.burst == 0:
		s.spawnBurst()
	case op >= 10:
		i := s.rng.Intn(len(s.owned))
		if j := s.ownedAt[i]; j >= 0 {
			if s.m.live(s.handles[j].id) {
				break // Arm wants a handle that has fired or been cancelled
			}
			spent := s.owned[i]
			s.handles[j].h = &spent
		}
		at := s.randomAt()
		s.k.Arm(&s.owned[i], at, s.callback(id))
		s.m.schedule(at, id)
		s.timers++
		s.ownedAt[i] = len(s.handles)
		s.handles = append(s.handles, handle{&s.owned[i], id})
	case op < 8:
		victim := s.victim()
		if victim == nil {
			break
		}
		if got, want := victim.h.Cancel(), s.m.cancel(victim.id); got != want {
			s.t.Fatalf("Cancel(timer %d) = %v, model says %v", victim.id, got, want)
		}
	default:
		victim := s.victim()
		if victim == nil {
			break
		}
		at := s.randomAt()
		if got, want := victim.h.Reschedule(at), s.m.reschedule(victim.id, at); got != want {
			s.t.Fatalf("Reschedule(timer %d) = %v, model says %v", victim.id, got, want)
		}
	}
	if got, want := s.k.QueueLen(), s.m.pending.Len(); got != want {
		s.t.Fatalf("QueueLen() = %d with %d live timers", got, want)
	}
	if s.unchecked++; s.unchecked == checkEvery {
		s.checkQueue()
	} else if err := s.k.CheckHead(); err != nil {
		s.t.Fatalf("after dispatch %d: %v", s.fired, err)
	}
}

// checkQueue walks the whole queue for its invariants.
func (s *timerScript) checkQueue() {
	s.unchecked = 0
	if err := s.k.CheckQueue(); err != nil {
		s.t.Fatalf("after dispatch %d: %v", s.fired, err)
	}
}

// runTimerScript runs one seeded script of budget operations until a
// stop event at a 24-hour horizon ends it, and checks what the model
// says of its end: the stop was the model's next timer, so every timer
// ordered before it fired; the timers behind it are still queued; and
// the kernel counted the model's dispatches and the stop. It returns
// the operations the script left unspent because no timer was left to
// run them, how many short tasks ran on a recycled struct, and the
// longest idle coroutine list a short task found.
func runTimerScript(t *testing.T, seed int64, budget int) (left, reused, maxIdle int) {
	t.Helper()
	s := &timerScript{t: t, k: sim.New(seed), rng: rand.New(rand.NewSource(seed)), budget: budget}
	s.ownedAt = [4]int{-1, -1, -1, -1}
	s.k.At(scriptHorizon, s.k.Stop)
	s.m.schedule(scriptHorizon, stopID)
	for i := 0; i < 200; i++ {
		s.step()
	}
	for i := 0; i < 3; i++ {
		s.spawn(s.k.Go)
	}
	if err := s.k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	s.checkQueue()
	if tm := s.m.next(); tm.id != stopID || s.k.Now() != scriptHorizon {
		t.Fatalf("seed %d: run ended at %v, model's next is timer %d at %v, want the stop at %v",
			seed, s.k.Now(), tm.id, tm.at, scriptHorizon)
	}
	if got, want := s.k.QueueLen(), s.m.pending.Len(); got != want {
		t.Fatalf("seed %d: QueueLen() = %d after the stop, model holds %d behind it", seed, got, want)
	}
	if got, want := s.k.Snapshot(), (sim.Stats{Events: s.fired + 1, Switches: s.switches, Spawns: uint64(s.sleepers + s.shorts)}); got != want {
		t.Fatalf("seed %d: stats %+v, model %+v", seed, got, want)
	}
	return s.budget, s.reused, s.maxIdle
}

// TestTimersMatchModel is the property test behind the kernel's single
// event queue: for any script of At/After/Arm/Schedule/Cancel/Reschedule
// and Sleep, dispatch order, handle results, Stats and queue length are
// those of the reference model, the queue's head invariant holds
// after every operation (CheckHead) and all its invariants every
// checkEvery operations and at the end (CheckQueue). Every seed runs
// short tasks on recycled structs, and on an idle coroutine list longer
// than the kernel's bound on grown coroutines.
func TestTimersMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		left, reused, maxIdle := runTimerScript(t, seed, 20000)
		if left != 0 {
			t.Fatalf("seed %d: script died out with %d operations unspent", seed, left)
		}
		if reused == 0 {
			t.Fatalf("seed %d: no short task ran on a recycled struct", seed)
		}
		if maxIdle <= sim.MaxIdleCoros {
			t.Fatalf("seed %d: no short task found more than %d idle coroutines (at most %d)", seed, sim.MaxIdleCoros, maxIdle)
		}
	}
}

// FuzzTimers runs timerScript under any seed and operation budget: the
// kernel's one queue must dispatch every script, sleeps included, in
// the model's (at, seq) order with its invariants intact, and every
// short task, recycled or not, must start fresh.
func FuzzTimers(f *testing.F) {
	f.Add(int64(1), uint16(2000))
	f.Add(int64(42), uint16(0))
	f.Add(int64(-7), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, budget uint16) {
		runTimerScript(t, seed, int(budget))
	})
}

// TestQueueHeadPaths drives, one by one, the paths of the queue's
// cached minimum that random scripts reach only by chance, checking
// the invariants after every operation and the dispatch order at the
// end.
func TestQueueHeadPaths(t *testing.T) {
	const ms = sim.Time(time.Millisecond)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, k *sim.Kernel, note func(string) func(), check func())
		want string
	}{
		{
			// At(now) takes the empty head; Schedule(now) at the same
			// instant comes after it by seq alone and goes into the heap.
			name: "schedule-after-at-same-instant",
			run: func(t *testing.T, k *sim.Kernel, note func(string) func(), check func()) {
				k.At(5*ms, note("later"))
				k.At(ms, func() {
					k.At(k.Now(), note("at"))
					check()
					k.Schedule(k.Now(), note("schedule"))
					check()
				})
			},
			want: "at schedule later",
		},
		{
			// A heap timer moved ahead of the head: the head moves into
			// the heap.
			name: "reschedule-heap-before-head",
			run: func(t *testing.T, k *sim.Kernel, note func(string) func(), check func()) {
				k.At(10*ms, note("head"))
				moved := k.At(20*ms, note("moved"))
				k.At(30*ms, note("tail"))
				check()
				if !moved.Reschedule(5 * ms) {
					t.Fatal("Reschedule of a pending heap timer failed")
				}
			},
			want: "moved head tail",
		},
		{
			name: "cancel-head",
			run: func(t *testing.T, k *sim.Kernel, note func(string) func(), check func()) {
				head := k.At(10*ms, note("head"))
				k.At(20*ms, note("rest"))
				check()
				if !head.Cancel() {
					t.Fatal("Cancel of the head failed")
				}
				if got := k.QueueLen(); got != 1 {
					t.Fatalf("QueueLen() = %d after cancelling the head of 2, want 1", got)
				}
			},
			want: "rest",
		},
		{
			// The head moved earlier (it stays the head), then behind a
			// heap timer, then back in front.
			name: "reschedule-head",
			run: func(t *testing.T, k *sim.Kernel, note func(string) func(), check func()) {
				head := k.At(10*ms, note("head"))
				k.At(20*ms, note("rest"))
				check()
				if !head.Reschedule(5 * ms) {
					t.Fatal("Reschedule of the head earlier failed")
				}
				check()
				if !head.Reschedule(30 * ms) {
					t.Fatal("Reschedule of the head later failed")
				}
				check()
				k.At(25*ms, note("between"))
				check()
				if !head.Reschedule(15 * ms) {
					t.Fatal("Reschedule of a heap timer earlier failed")
				}
			},
			want: "head rest between",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			var order []string
			note := func(name string) func() { return func() { order = append(order, name) } }
			check := func() {
				t.Helper()
				if err := k.CheckQueue(); err != nil {
					t.Fatal(err)
				}
			}
			tc.run(t, k, note, check)
			check()
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(order, " "); got != tc.want {
				t.Fatalf("dispatch order %q, want %q", got, tc.want)
			}
		})
	}
}

// TestRescheduleKeepsQueueAtLiveTimers is the flow solver's pattern:
// every live timer moved many times before it fires. The queue must
// hold one entry per live timer however often they move.
func TestRescheduleKeepsQueueAtLiveTimers(t *testing.T) {
	const live, moves = 1000, 100
	k := sim.New(1)
	fired := 0
	evs := make([]*sim.Event, live)
	for i := range evs {
		evs[i] = k.At(sim.Time(time.Hour), func() { fired++ })
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < moves; round++ {
		for _, ev := range evs {
			if !ev.Reschedule(sim.Time(time.Hour).Add(time.Duration(rng.Intn(int(time.Hour))))) {
				t.Fatal("Reschedule of a pending timer failed")
			}
		}
	}
	if got := k.QueueLen(); got != live {
		t.Fatalf("QueueLen() = %d after %d moves of %d timers, want %d", got, moves, live, live)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != live {
		t.Fatalf("fired %d timers, want %d", fired, live)
	}
}

// TestRescheduleOntoOccupiedInstant checks a moved timer queues behind
// the timers already at its new instant, and ahead of later arrivals.
func TestRescheduleOntoOccupiedInstant(t *testing.T) {
	k := sim.New(1)
	var order []string
	note := func(name string) func() { return func() { order = append(order, name) } }
	at := sim.Time(time.Second)
	moved := k.At(2*at, note("moved"))
	k.At(at, note("a"))
	k.At(at, note("b"))
	if !moved.Reschedule(at) {
		t.Fatal("Reschedule of a pending timer failed")
	}
	k.At(at, note("c"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "a b moved c"; got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
}
