package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// checkHeap asserts the two structural invariants of the queue: every
// slot orders no earlier than its parent, and every queued event knows
// its own index.
func checkHeap(t *testing.T, q eventQueue) {
	t.Helper()
	for i, s := range q {
		if s.ev.idx != i {
			t.Fatalf("slot %d (at=%v seq=%d): event records idx %d", i, s.at, s.seq, s.ev.idx)
		}
		if i > 0 && s.before(q[(i-1)/4]) {
			t.Fatalf("slot %d (at=%v seq=%d) orders before its parent %d", i, s.at, s.seq, (i-1)/4)
		}
	}
}

// sortedModel is the reference the heap is checked against: a plain
// slice, re-sorted by (at, seq) whenever the minimum is needed.
type sortedModel []slot

func (m *sortedModel) popMin() slot {
	sort.Slice(*m, func(i, j int) bool { return (*m)[i].before((*m)[j]) })
	s := (*m)[0]
	*m = (*m)[1:]
	return s
}

func (m *sortedModel) drop(ev *event) {
	for i, s := range *m {
		if s.ev == ev {
			*m = append((*m)[:i], (*m)[i+1:]...)
			return
		}
	}
}

// TestQueueMatchesSortedModel drives the heap and the sorted-slice
// model through the same randomized kernel-shaped script — pushes
// never go below the last popped instant, mirroring the kernel's clamp
// — with in-place removals and re-keyings mixed in, and asserts every
// pop agrees and the structure holds after every operation.
func TestQueueMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var ref sortedModel
	var seq uint64
	now := Time(0)

	randomAt := func() Time {
		switch rng.Intn(10) {
		case 0: // same instant: FIFO tie-break territory
			return now
		case 1: // far future: a sparse tail behind the dense head
			return now + Time(time.Hour)*Time(1+rng.Intn(100))
		default: // clustered near now, the common case
			return now + Time(rng.Intn(int(50*time.Microsecond)))
		}
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(8); {
		case len(q) == 0 || op < 4:
			s := slot{at: randomAt(), seq: seq, ev: &event{}}
			seq++
			q.push(s)
			ref = append(ref, s)
		case op < 6:
			got, want := q.pop(), ref.popMin()
			if got != want {
				t.Fatalf("step %d: heap popped (at=%v seq=%d), model (at=%v seq=%d)",
					step, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		case op == 6:
			ev := q[rng.Intn(len(q))].ev
			q.remove(ev.idx)
			ref.drop(ev)
		default:
			ev := q[rng.Intn(len(q))].ev
			s := slot{at: randomAt(), seq: seq, ev: ev}
			seq++
			q.fix(ev.idx, s)
			ref.drop(ev)
			ref = append(ref, s)
		}
		if len(q) != len(ref) {
			t.Fatalf("step %d: heap holds %d, model %d", step, len(q), len(ref))
		}
		checkHeap(t, q)
	}
	for len(q) > 0 {
		if got, want := q.pop(), ref.popMin(); got != want {
			t.Fatalf("drain: heap popped (at=%v seq=%d), model (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
}

// filled returns a queue holding n events at instants 10, 20, … pushed
// in that order, and the events by push order.
func filled(n int) (eventQueue, []*event) {
	var q eventQueue
	evs := make([]*event, n)
	for i := range evs {
		evs[i] = &event{}
		q.push(slot{at: Time(10 * (i + 1)), seq: uint64(i), ev: evs[i]})
	}
	return q, evs
}

// drainSeqs pops everything and returns the seqs in pop order.
func drainSeqs(q eventQueue) []uint64 {
	var out []uint64
	for len(q) > 0 {
		out = append(out, q.pop().seq)
	}
	return out
}

// TestQueueRemoveAnywhere removes the root, an interior slot, a leaf
// and the last slot of a three-level heap and checks what is left
// still pops in order.
func TestQueueRemoveAnywhere(t *testing.T) {
	const n = 30 // levels of 1, 4, 16 and a partial fourth
	for _, tc := range []struct {
		name string
		pick func(q eventQueue) int
	}{
		{"root", func(eventQueue) int { return 0 }},
		{"middle", func(eventQueue) int { return 2 }},
		{"leaf", func(eventQueue) int { return 25 }},
		{"last", func(q eventQueue) int { return len(q) - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, _ := filled(n)
			i := tc.pick(q)
			gone := q[i].seq
			q.remove(i)
			checkHeap(t, q)
			got := drainSeqs(q)
			if len(got) != n-1 {
				t.Fatalf("popped %d events, want %d", len(got), n-1)
			}
			for j, s := range got {
				if s == gone {
					t.Fatalf("removed event seq %d was popped", gone)
				}
				if j > 0 && got[j-1] > s {
					t.Fatalf("out of order: %v", got)
				}
			}
		})
	}
}

// TestQueueFixMovesBothWays re-keys a leaf to the earliest instant and
// the root to the latest, and checks each lands where its new key says.
func TestQueueFixMovesBothWays(t *testing.T) {
	q, evs := filled(30)
	leaf := evs[29]
	q.fix(leaf.idx, slot{at: 1, seq: 100, ev: leaf})
	checkHeap(t, q)
	if q[0].ev != leaf {
		t.Fatalf("leaf re-keyed to the minimum sits at %d, not the root", leaf.idx)
	}
	root := evs[0]
	q.fix(root.idx, slot{at: 1000, seq: 101, ev: root})
	checkHeap(t, q)
	got := drainSeqs(q)
	if got[0] != 100 || got[len(got)-1] != 101 {
		t.Fatalf("pop order %v: want seq 100 first and 101 last", got)
	}
}

// TestQueueSameInstantFIFO checks that a burst at one instant comes
// back in schedule order.
func TestQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	for i := 0; i < 1000; i++ {
		q.push(slot{at: 12345, seq: uint64(i), ev: &event{}})
	}
	for i, s := range drainSeqs(q) {
		if s != uint64(i) {
			t.Fatalf("pop %d: got seq %d", i, s)
		}
	}
}

// TestHorizonDrainsQueue checks that reaching the horizon empties the
// queue and leaves the handles of the discarded events stale.
func TestHorizonDrainsQueue(t *testing.T) {
	k := New(1)
	fired := 0
	k.At(Time(time.Second), func() { fired++ })
	var late []*Event
	for i := 0; i < 10; i++ {
		late = append(late, k.At(Time(time.Hour)+Time(i), func() { fired++ }))
	}
	if err := k.RunUntil(Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d callbacks inside the horizon, want 1", fired)
	}
	if n := k.QueueLen(); n != 0 {
		t.Fatalf("QueueLen() = %d after the horizon, want 0", n)
	}
	for i, ev := range late {
		if ev.Cancel() || ev.Reschedule(0) {
			t.Fatalf("handle %d of a discarded event still live", i)
		}
	}
}

// TestEventHandleStaleAfterRecycle checks that a handle to a fired
// event cannot cancel the recycled struct's next incarnation.
func TestEventHandleStaleAfterRecycle(t *testing.T) {
	k := New(1)
	fired := make(map[string]bool)
	h1 := k.After(time.Millisecond, func() { fired["first"] = true })
	k.After(2*time.Millisecond, func() {
		// "first" already fired and its struct was recycled (the free
		// list is LIFO, so the next schedule reuses it).
		if h1.Cancel() {
			t.Error("Cancel on a fired event's stale handle reported success")
		}
		if h1.Reschedule(k.Now().Add(time.Hour)) {
			t.Error("Reschedule on a fired event's stale handle reported success")
		}
		k.After(time.Millisecond, func() { fired["second"] = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired["first"] || !fired["second"] {
		t.Fatalf("fired = %v, want both", fired)
	}
}

// TestEventReschedule moves a timer forward and backward and checks the
// callback fires exactly once, at the rescheduled instant, in fresh
// FIFO position.
func TestEventReschedule(t *testing.T) {
	k := New(1)
	var order []string
	at := func(name string) func() {
		return func() { order = append(order, name) }
	}
	ev := k.At(Time(10*time.Millisecond), at("moved"))
	k.At(Time(5*time.Millisecond), at("five"))
	k.At(Time(20*time.Millisecond), at("twenty"))
	k.At(0, func() {
		// Move the 10ms timer to 20ms: it must now fire after the
		// pre-existing 20ms event (fresh seq).
		if !ev.Reschedule(Time(20 * time.Millisecond)) {
			t.Error("Reschedule of pending event failed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"five", "twenty", "moved"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// A fired event cannot be revived.
	if ev.Reschedule(Time(time.Hour)) {
		t.Error("Reschedule of fired event reported success")
	}
}

// TestCancelledEventRecycled checks cancelled events leave the queue at
// once and their structs are reused without disturbing later events.
func TestCancelledEventRecycled(t *testing.T) {
	k := New(1)
	n := 0
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, k.After(time.Duration(i+1)*time.Millisecond, func() { n++ }))
	}
	for i, ev := range evs {
		if i%2 == 0 && !ev.Cancel() {
			t.Fatalf("cancel %d failed", i)
		}
	}
	if got := k.QueueLen(); got != 50 {
		t.Fatalf("QueueLen() = %d after cancelling 50 of 100, want 50", got)
	}
	for i := 0; i < 50; i++ {
		k.After(time.Duration(i+1)*time.Microsecond, func() { n++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("fired %d callbacks, want 100", n)
	}
	for i, ev := range evs {
		if ev.Cancel() {
			t.Fatalf("second cancel of handle %d reported success", i)
		}
	}
}

// TestCondSignalRemovesTimeoutTimer checks that signalling a waiter
// parked with a timeout takes its timer out of the queue.
func TestCondSignalRemovesTimeoutTimer(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	const waiters = 50
	signalled := 0
	for i := 0; i < waiters; i++ {
		k.Go("waiter", func(p *Proc) {
			if c.WaitTimeout(p, time.Hour) {
				signalled++
			}
		})
	}
	k.At(Time(time.Second), func() {
		if got := k.QueueLen(); got != waiters {
			t.Errorf("QueueLen() = %d with %d timed waiters parked, want %d", got, waiters, waiters)
		}
		c.Broadcast()
		if got := k.QueueLen(); got != 0 {
			t.Errorf("QueueLen() = %d after Broadcast, want 0", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if signalled != waiters {
		t.Fatalf("%d of %d waiters saw the signal", signalled, waiters)
	}
	if now := k.Now(); now != Time(time.Second) {
		t.Fatalf("run ended at %v: a cancelled timeout still advanced the clock", now)
	}
}

// TestCondSignalSparesRecycledTimer checks the gen guard on Signal's
// timer teardown: the (event, gen) pair a waiter keeps after its
// timeout fired must not remove the event that reuses the struct.
func TestCondSignalSparesRecycledTimer(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	bystander := false
	k.Go("timed-out", func(p *Proc) {
		if c.WaitTimeout(p, time.Second) {
			t.Error("waiter reported a signal, want a timeout")
		}
		// The free list is LIFO: this event takes over the timer's struct.
		k.Schedule(p.Now().Add(time.Second), func() { bystander = true })
		w := &p.t.cw
		if w.timerEv.gen == w.timerGen {
			t.Fatal("timer struct was not recycled")
		}
		w.fired = false
		c.waiters = append(c.waiters, w) // re-register the stale waiter
		c.Signal()
		if got := k.QueueLen(); got != 1 {
			t.Errorf("QueueLen() = %d after a stale Signal, want 1", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bystander {
		t.Fatal("stale Signal cancelled an unrelated event")
	}
}

// BenchmarkKernelQueues drives the kernel's event queue in the shapes
// whole runs put it in (DESIGN.md decision 3). depth=N: N outstanding
// timers, each re-arming itself at a random offset when it fires — the
// pipe model's steady state. resched: every live timer moved many times
// before it fires — the flow solver's pattern, where each solve moves
// the completion event of every re-rated flow; one op is one
// Reschedule. bimodal: the depth=1024 churn in front of a standing
// far-future tail (idle timeouts, horizon events) that the dense head
// must not pay for.
func BenchmarkKernelQueues(b *testing.B) {
	// churn runs `near` self-renewing timers on k until b.N have fired.
	churn := func(b *testing.B, k *Kernel, near int) {
		rng := rand.New(rand.NewSource(1))
		fired := 0
		for i := 0; i < near; i++ {
			var fn func()
			fn = func() {
				fired++
				if fired+near <= b.N {
					k.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, fn)
				}
			}
			k.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, fn)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if fired < b.N && fired != near {
			b.Fatalf("fired %d events, want >= %d", fired, b.N)
		}
	}
	for _, depth := range []int{1024, 32768} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			churn(b, New(1), depth)
		})
	}
	b.Run("resched/live=1000/moves=100", func(b *testing.B) {
		const live, moves = 1000, 100
		k := New(1)
		rng := rand.New(rand.NewSource(1))
		evs := make([]*Event, live)
		k.Go("solver", func(p *Proc) {
			for done := 0; done < b.N; {
				for i := range evs {
					evs[i] = k.At(p.Now().Add(time.Hour), func() {})
				}
				// Rounds are 1 ms apart and no move lands nearer than
				// 200 ms, so nothing fires until the moves are done.
				for m := 0; m < moves && done < b.N; m++ {
					p.Sleep(time.Millisecond)
					for _, ev := range evs {
						if !ev.Reschedule(p.Now().Add(time.Duration(200+rng.Intn(800)) * time.Millisecond)) {
							b.Error("timer fired before its moves were done")
							return
						}
						done++
					}
				}
				p.Sleep(2 * time.Second)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("bimodal", func(b *testing.B) {
		k := New(1)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 32768-1024; i++ {
			k.After(time.Hour+time.Duration(rng.Intn(int(100*time.Hour))), func() {})
		}
		churn(b, k, 1024)
	})
}
