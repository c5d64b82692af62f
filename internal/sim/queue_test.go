package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// checkQueue fails t on the first broken queue invariant (see
// eventQueue.check in export_test.go).
func checkQueue(t *testing.T, q *eventQueue) {
	t.Helper()
	if err := q.check(); err != nil {
		t.Fatal(err)
	}
}

// sortedModel is the reference the queue is checked against: a binary
// heap from container/heap ordered by (at, seq), which shares no code
// with the queue's 4-ary heap and cached head, and a map from event to
// heap index for removal. Each operation is O(log n), so the script can
// run long.
type sortedModel struct {
	slots []slot
	index map[*event]int
}

func (m *sortedModel) Len() int           { return len(m.slots) }
func (m *sortedModel) Less(i, j int) bool { return m.slots[i].before(m.slots[j]) }
func (m *sortedModel) Swap(i, j int) {
	m.slots[i], m.slots[j] = m.slots[j], m.slots[i]
	m.index[m.slots[i].ev], m.index[m.slots[j].ev] = i, j
}
func (m *sortedModel) Push(x any) {
	s := x.(slot)
	m.index[s.ev] = len(m.slots)
	m.slots = append(m.slots, s)
}
func (m *sortedModel) Pop() any {
	n := len(m.slots) - 1
	s := m.slots[n]
	m.slots = m.slots[:n]
	delete(m.index, s.ev)
	return s
}

func (m *sortedModel) add(s slot)     { heap.Push(m, s) }
func (m *sortedModel) popMin() slot   { return heap.Pop(m).(slot) }
func (m *sortedModel) drop(ev *event) { heap.Remove(m, m.index[ev]) }

// TestQueueMatchesSortedModel drives the queue and the reference heap
// through the same randomized kernel-shaped script — pushes
// never go below the last popped instant, mirroring the kernel's clamp
// — with in-place removals and re-keyings of the head and of heap
// slots mixed in, and asserts every pop agrees, the head invariant
// holds after every operation and the whole structure every 32
// operations and at the end.
func TestQueueMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	ref := &sortedModel{index: make(map[*event]int)}
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
		case q.len() == 0 || op < 4:
			s := slot{at: randomAt(), seq: seq, ev: &event{}}
			seq++
			q.push(s)
			ref.add(s)
		case op < 6:
			got, want := q.pop(), ref.popMin()
			if got != want {
				t.Fatalf("step %d: queue popped (at=%v seq=%d), model (at=%v seq=%d)",
					step, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		case op == 6:
			ev := ref.slots[rng.Intn(ref.Len())].ev
			q.remove(ev.idx)
			ref.drop(ev)
		default:
			ev := ref.slots[rng.Intn(ref.Len())].ev
			s := slot{at: randomAt(), seq: seq, ev: ev}
			seq++
			q.fix(ev.idx, s)
			ref.drop(ev)
			ref.add(s)
		}
		if q.len() != ref.Len() {
			t.Fatalf("step %d: queue holds %d, model %d", step, q.len(), ref.Len())
		}
		// As in the timer scripts (checkEvery): the head check after
		// every operation, a full walk every 32.
		if step%32 == 0 {
			checkQueue(t, &q)
		} else if err := q.checkHead(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	checkQueue(t, &q)
	for q.len() > 0 {
		if got, want := q.pop(), ref.popMin(); got != want {
			t.Fatalf("drain: queue popped (at=%v seq=%d), model (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
}

// filled returns a queue holding n events at instants 10, 20, … pushed
// in that order, and the events by push order: the first is the head,
// the rest make up the heap.
func filled(n int) (*eventQueue, []*event) {
	q := &eventQueue{}
	evs := make([]*event, n)
	for i := range evs {
		evs[i] = &event{}
		q.push(slot{at: Time(10 * (i + 1)), seq: uint64(i), ev: evs[i]})
	}
	return q, evs
}

// drainSeqs pops everything and returns the seqs in pop order.
func drainSeqs(q *eventQueue) []uint64 {
	var out []uint64
	for q.len() > 0 {
		out = append(out, q.pop().seq)
	}
	return out
}

// TestQueueRemoveAnywhere removes the head, the heap's root, an
// interior slot, a leaf and the last slot of a three-level heap and
// checks what is left still pops in order.
func TestQueueRemoveAnywhere(t *testing.T) {
	const n = 31 // the head, then heap levels of 1, 4, 16 and a partial fourth
	for _, tc := range []struct {
		name string
		pick func(q *eventQueue) int
	}{
		{"head", func(*eventQueue) int { return -1 }},
		{"root", func(*eventQueue) int { return 0 }},
		{"middle", func(*eventQueue) int { return 2 }},
		{"leaf", func(*eventQueue) int { return 25 }},
		{"last", func(q *eventQueue) int { return len(q.heap) - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, _ := filled(n)
			checkQueue(t, q)
			i := tc.pick(q)
			gone := q.head.seq
			if i >= 0 {
				gone = q.heap[i].seq
			}
			q.remove(i)
			checkQueue(t, q)
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

// TestQueueFixMovesBothWays re-keys a leaf to the earliest instant —
// ahead of the head, which must move into the heap — and then the new
// minimum and the head to the latest, and checks each lands where its
// new key says.
func TestQueueFixMovesBothWays(t *testing.T) {
	q, evs := filled(31)
	leaf := evs[30]
	q.fix(leaf.idx, slot{at: 1, seq: 100, ev: leaf})
	checkQueue(t, q)
	if q.peek().ev != leaf {
		t.Fatalf("leaf re-keyed to the minimum sits at %d, not at the front", leaf.idx)
	}
	q.fix(leaf.idx, slot{at: 1000, seq: 101, ev: leaf})
	checkQueue(t, q)
	q.push(slot{at: 5, seq: 102, ev: &event{}})
	if head := q.head.seq; head != 102 {
		t.Fatalf("head holds seq %d after a push ahead of the minimum, want 102", head)
	}
	q.fix(-1, slot{at: 2000, seq: 103, ev: q.head.ev})
	checkQueue(t, q)
	got := drainSeqs(q)
	if got[0] != 0 || got[len(got)-2] != 101 || got[len(got)-1] != 103 {
		t.Fatalf("pop order %v: want seq 0 first, then 101 and 103 last", got)
	}
}

// TestQueueSameInstantFIFO checks that a burst at one instant comes
// back in schedule order.
func TestQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	for i := 0; i < 1000; i++ {
		q.push(slot{at: 12345, seq: uint64(i), ev: &event{}})
	}
	for i, s := range drainSeqs(&q) {
		if s != uint64(i) {
			t.Fatalf("pop %d: got seq %d", i, s)
		}
	}
}

// TestSlotLtMatchesBefore checks the branch-free comparison against
// before on the edges of both key halves — equal instants, instant 0
// and math.MaxInt64, seq 0 and math.MaxUint64, adjacent seqs — and on
// random keys: lt is 1 exactly when before holds.
func TestSlotLtMatchesBefore(t *testing.T) {
	ats := []Time{0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b slot) {
		t.Helper()
		want := 0
		if a.before(b) {
			want = 1
		}
		if got := a.lt(b); got != want {
			t.Fatalf("(at=%d seq=%d).lt(at=%d seq=%d) = %d, before says %d", a.at, a.seq, b.at, b.seq, got, want)
		}
	}
	for _, aa := range ats {
		for _, as := range seqs {
			for _, ba := range ats {
				for _, bs := range seqs {
					check(slot{at: aa, seq: as}, slot{at: ba, seq: bs})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		a := slot{at: Time(rng.Int63()), seq: rng.Uint64()}
		b := slot{at: Time(rng.Int63()), seq: rng.Uint64()}
		switch rng.Intn(4) {
		case 0: // equal instants: seq decides
			b.at = a.at
		case 1: // adjacent seqs at one instant
			b.at, b.seq = a.at, a.seq+1
		case 2: // instants one apart, seqs either way
			b.at = a.at + 1
			if a.at == math.MaxInt64 {
				b.at = a.at - 1
			}
		}
		check(a, b)
		check(b, a)
	}
}

// branchyDown is eventHeap.down with the comparison loop for every
// family, as it was before the branch-free pick.
func branchyDown(q eventHeap, i int, s slot) {
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		m := c
		for j, end := c+1, min(c+4, len(q)); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(s) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = s
}

// TestDownMatchesBranchyPick sifts random keys down random heaps, with
// full and partial last families and tie-heavy instants, and requires
// the branch-free pick to leave exactly the array the comparison loop
// leaves.
func TestDownMatchesBranchyPick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		span := 1 + rng.Intn(1000) // small spans make equal instants
		var q eventHeap
		var seq uint64
		for len(q) < n {
			q.push(slot{at: Time(rng.Intn(span)), seq: seq, ev: &event{}})
			seq++
		}
		i := rng.Intn(n)
		s := slot{at: Time(rng.Intn(span)), seq: seq, ev: q[i].ev}
		if i > 0 && s.before(q[(i-1)/4]) {
			continue // down's precondition: s orders no earlier than i's parent
		}
		ref := append(eventHeap(nil), q...)
		branchyDown(ref, i, s)
		q.down(i, s)
		for j := range q {
			if q[j] != ref[j] {
				t.Fatalf("trial %d: n=%d, down from %d: slot %d is (at=%v seq=%d), branchy pick (at=%v seq=%d)",
					trial, n, i, j, q[j].at, q[j].seq, ref[j].at, ref[j].seq)
			}
		}
		checkQueue(t, &eventQueue{heap: q})
	}
}

// TestHorizonDrainsQueue ends a run with a stop event: the events
// queued behind it never fire and stay queued with live handles, so
// cancelling them after Run returns drains the queue.
func TestHorizonDrainsQueue(t *testing.T) {
	k := New(1)
	fired := 0
	k.At(Time(time.Second), func() { fired++ })
	var late []*Event
	for i := 0; i < 10; i++ {
		late = append(late, k.At(Time(time.Hour)+Time(i), func() { fired++ }))
	}
	k.At(Time(time.Minute), k.Stop)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d callbacks before the stop, want 1", fired)
	}
	if n := k.QueueLen(); n != len(late) {
		t.Fatalf("QueueLen() = %d after the stop, want the %d events behind it", n, len(late))
	}
	for i, ev := range late {
		if !ev.Cancel() {
			t.Fatalf("handle %d of an event behind the stop is stale", i)
		}
		checkQueue(t, &k.events)
	}
	if n := k.QueueLen(); n != 0 {
		t.Fatalf("QueueLen() = %d after cancelling every event, want 0", n)
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
	c := new(Cond)
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
	c := new(Cond)
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
		c.link(p.t) // re-link the stale waiter
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
