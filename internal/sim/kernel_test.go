package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	k := New(1)
	if k.Now() != 0 {
		t.Fatalf("new kernel clock = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := New(1)
	var end Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(3*time.Second) {
		t.Fatalf("woke at %v, want 3s", end)
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := New(1)
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	k := New(1)
	var got []int
	k.At(Time(5*time.Second), func() { got = append(got, 5) })
	k.At(Time(1*time.Second), func() { got = append(got, 1) })
	k.At(Time(3*time.Second), func() { got = append(got, 3) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("event order = %v, want [1 3 5]", got)
	}
}

func TestSameInstantEventsFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(time.Second), func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	k := New(1)
	fired := false
	ev := k.At(Time(time.Second), func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel reported failure on pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := New(1)
	c := new(Cond)
	k.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", dl.Blocked)
	}
}

func TestStopEndsRun(t *testing.T) {
	k := New(1)
	n := 0
	// Unwind order at Stop: tasks that were ready first, in the order
	// they were woken, then parked tasks in spawn order.
	var unwound []string
	waitOn := func(c *Cond) func(*Proc) {
		return func(p *Proc) {
			defer func() { unwound = append(unwound, p.Name()) }()
			c.Wait(p)
			t.Errorf("%s resumed after Stop", p.Name())
		}
	}
	never, ca, cb := new(Cond), new(Cond), new(Cond)
	k.Go("parked", waitOn(never))
	k.Go("a", waitOn(ca))
	k.Go("b", waitOn(cb))
	orphanRan := false
	k.Go("worker", func(p *Proc) {
		// A cleanup that blocks (the shape of defer conn.Close(p)) must
		// unwind at once, and a task spawned while unwinding must never
		// run.
		defer func() { unwound = append(unwound, p.Name()) }()
		defer p.Sleep(time.Hour)
		defer p.Go("orphan", func(*Proc) { orphanRan = true })
		for {
			p.Sleep(time.Second)
			n++
			if n == 5 {
				k.Stop()
				cb.Signal()
				ca.Signal()
			}
		}
	})
	empty := NewChan[int](k, 0)
	k.Go("receiver", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		defer empty.Recv(p) // blocks on the empty channel when not killed
		empty.Recv(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("iterations = %d, want 5", n)
	}
	if want := []string{"b", "a", "parked", "worker", "receiver"}; !slices.Equal(unwound, want) {
		t.Fatalf("unwound %v, want %v (blocking cleanups cut short)", unwound, want)
	}
	if orphanRan {
		t.Fatal("a task spawned by an unwinding task ran its body")
	}
	if k.Now() != Time(5*time.Second) {
		t.Fatalf("final clock %v, want the 5s of the Stop", k.Now())
	}
}

// goroutinesSettleAt waits for the goroutine count to come back to at
// most base. A leak shows as more goroutines than base; fewer is not
// one, since a goroutine an earlier test left behind may exit while
// this test runs.
func goroutinesSettleAt(t *testing.T, base int, when string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%s: %d goroutines, %d before", when, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestTaskPanicReachesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	var unwound []string
	for _, name := range []string{"a", "b"} {
		k.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, p.Name()) }()
			p.Sleep(time.Hour)
		})
	}
	k.Go("bad", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		return k.Run()
	}()
	if got != "boom" {
		t.Fatalf("Run's caller recovered %v, want the task's panic value", got)
	}
	if want := []string{"a", "b"}; !slices.Equal(unwound, want) {
		t.Fatalf("unwound %v, want %v", unwound, want)
	}
	goroutinesSettleAt(t, base, "after a task panic")
}

// TestStaleProcPanics checks the incarnation guard on recycled tasks: a
// Proc kept past its task's return, used once Go has handed the task's
// struct to a successor, panics in park, Sleep and a Cond wait, and
// leaves the successor as it was — running, on no Cond, with no timer
// queued — so the successor goes on with its own Proc.
func TestStaleProcPanics(t *testing.T) {
	const want = "sim: a Proc was used after its task returned"
	for _, tc := range []struct {
		name string
		use  func(stale *Proc)
	}{
		{"park", func(stale *Proc) { stale.park() }},
		{"Sleep", func(stale *Proc) { stale.Sleep(time.Second) }},
		{"Yield", func(stale *Proc) { stale.Yield() }},
		{"WaitTimeout", func(stale *Proc) { new(Cond).WaitTimeout(stale, time.Second) }},
	} {
		k := New(1)
		var stale *Proc
		k.Go("first", func(p *Proc) {
			p.Sleep(time.Millisecond)
			stale = p
		})
		var got any
		done := false
		k.Go("spawner", func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
			k.Go("successor", func(p *Proc) {
				if p.t != stale.t {
					t.Fatalf("%s: the successor did not reuse the returned task's struct", tc.name)
				}
				func() {
					defer func() { got = recover() }()
					tc.use(stale)
				}()
				if s := p.t; s.blocked || s.killed || s.cw.c != nil || k.QueueLen() != 0 {
					t.Errorf("%s: successor blocked=%v killed=%v cond=%p, %d timers queued after the stale use",
						tc.name, s.blocked, s.killed, s.cw.c, k.QueueLen())
				}
				p.Sleep(time.Second)
				done = true
			})
		})
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: stale use recovered %v, want the panic %q", tc.name, got, want)
		}
		if !done {
			t.Errorf("%s: the successor did not finish its own Sleep", tc.name)
		}
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	sleepers := func(k *Kernel, n int, d Duration) {
		for i := 0; i < n; i++ {
			k.Go("sleeper", func(p *Proc) { p.Sleep(d) })
		}
	}
	// Every case but the last two ends a run whose idle list holds more
	// coroutines than maxIdleCoros: a coroutine on its first stack is
	// always kept, so it is teardown that ends them. Grown coroutines
	// past maxIdleCoros end as their task returns, so "grown" ends
	// coroutines both ways.
	burst := 4 * maxIdleCoros
	cases := []struct {
		name string
		run  func(k *Kernel) error
	}{
		{"completion", func(k *Kernel) error {
			sleepers(k, burst, time.Second)
			return k.Run()
		}},
		{"grown", func(k *Kernel) error {
			for i := 0; i < burst; i++ {
				k.Go("deep", func(p *Proc) {
					Recurse(8 << 10)
					p.Sleep(time.Second)
				})
			}
			return k.Run()
		}},
		{"Stop", func(k *Kernel) error {
			sleepers(k, burst, time.Second)
			sleepers(k, 10, time.Hour)
			k.After(time.Minute, k.Stop)
			return k.Run()
		}},
		{"deadlock", func(k *Kernel) error {
			sleepers(k, burst, time.Second)
			c := new(Cond)
			k.Go("stuck", func(p *Proc) { c.Wait(p) })
			var dl *DeadlockError
			if err := k.Run(); !errors.As(err, &dl) {
				return fmt.Errorf("Run = %v, want DeadlockError", err)
			}
			return nil
		}},
		{"never run", func(k *Kernel) error {
			sleepers(k, 10, time.Second)
			return nil
		}},
	}
	for _, tc := range cases {
		base := runtime.NumGoroutine()
		if err := tc.run(New(1)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		goroutinesSettleAt(t, base, tc.name)
	}
}

// burstIdle runs a first burst of n tasks made by spawn, concurrent at
// one instant, and then a second, from a spawning task, and returns the
// idle list after each burst and how many of its coroutines had moved
// stacks.
func burstIdle(t *testing.T, n int, spawn func(k *Kernel)) (first, second []*coro, grown [2]int) {
	t.Helper()
	k := New(1)
	k.Go("spawner", func(p *Proc) {
		for i := range 2 {
			for range n {
				spawn(k)
			}
			p.Sleep(time.Minute)
			idle, g := k.IdleCoros()
			if i == 0 {
				first = idle
			} else {
				second = idle
			}
			grown[i] = g
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return first, second, grown
}

// TestIdleKeepsFirstStacks checks the idle rule's unbounded half: a
// burst of 4×maxIdleCoros short sleepers, which return on the stack
// they began with, leaves every coroutine idle, and a second burst runs
// on those same coroutines and makes none. (The sleeper whose timer
// grows the event queue runs the allocator's slow path and may grow
// its stack; a few such are kept too.)
func TestIdleKeepsFirstStacks(t *testing.T) {
	n := 4 * maxIdleCoros
	first, second, grown := burstIdle(t, n, func(k *Kernel) {
		k.Go("short", func(p *Proc) { p.Sleep(time.Second) })
	})
	if len(first) != n || grown[0] > n/8 {
		t.Fatalf("after the first burst: %d idle, %d of them grown; want %d, nearly all on first stacks", len(first), grown[0], n)
	}
	kept := make(map[*coro]bool, n)
	for _, c := range first {
		kept[c] = true
	}
	for _, c := range second {
		if !kept[c] {
			t.Fatalf("the second burst made coroutines: %d idle after it, %d after the first, not the same set", len(second), len(first))
		}
	}
	if len(second) != n {
		t.Fatalf("after the second burst: %d idle, want %d", len(second), n)
	}
}

// TestIdleBoundsGrownStacks checks the idle rule's bounded half: a
// burst of 4×maxIdleCoros tasks that recurse through 8 KiB of frames
// before they sleep and return leaves maxIdleCoros coroutines idle, all
// grown, and so does a second burst that starts on those.
func TestIdleBoundsGrownStacks(t *testing.T) {
	n := 4 * maxIdleCoros
	first, second, grown := burstIdle(t, n, func(k *Kernel) {
		k.Go("deep", func(p *Proc) {
			Recurse(8 << 10)
			p.Sleep(time.Second)
		})
	})
	for i, idle := range [][]*coro{first, second} {
		if len(idle) != maxIdleCoros || grown[i] != maxIdleCoros {
			t.Errorf("after burst %d: %d idle, %d of them grown; want %d, all grown", i+1, len(idle), grown[i], maxIdleCoros)
		}
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	k := New(1)
	var childTime Time
	k.Go("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.Go("child", func(c *Proc) {
			childTime = c.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != Time(time.Second) {
		t.Fatalf("child started at %v, want 1s", childTime)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() string {
		k := New(42)
		out := ""
		for i := 0; i < 20; i++ {
			i := i
			k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				d := Duration(p.Rand().Intn(1000)) * time.Millisecond
				p.Sleep(d)
				out += fmt.Sprintf("%d@%v;", i, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("runs with same seed diverged:\n%s\n%s", a, b)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	trace := func(seed int64) string {
		k := New(seed)
		out := ""
		for i := 0; i < 20; i++ {
			i := i
			k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(p.Rand().Intn(1000)) * time.Millisecond)
				out += fmt.Sprintf("%d@%v;", i, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if trace(1) == trace(2) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestStatsCounters(t *testing.T) {
	k := New(1)
	for i := 0; i < 3; i++ {
		k.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := k.Snapshot()
	if s.Spawns != 3 {
		t.Fatalf("spawns = %d, want 3", s.Spawns)
	}
	if s.Events < 3 {
		t.Fatalf("events = %d, want >= 3 (one wake per sleeper)", s.Events)
	}
	if s.Switches < 6 {
		t.Fatalf("switches = %d, want >= 6 (start + resume per task)", s.Switches)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(time.Second)
	if a.Add(time.Second) != Time(2*time.Second) {
		t.Fatal("Add broken")
	}
	if a.Add(time.Second).Sub(a) != time.Second {
		t.Fatal("Sub broken")
	}
	if a.Seconds() != 1.0 {
		t.Fatalf("Seconds = %v, want 1", a.Seconds())
	}
	if a.String() != "1s" {
		t.Fatalf("String = %q, want 1s", a.String())
	}
}

func TestManyTasksScale(t *testing.T) {
	k := New(7)
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		k.Go("w", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Sleep(Duration(1+p.Rand().Intn(100)) * time.Millisecond)
			}
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("completed = %d, want %d", done, n)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	k := New(1)
	var fireTime Time
	k.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		k.At(Time(time.Second), func() { fireTime = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fireTime != Time(5*time.Second) {
		t.Fatalf("past event fired at %v, want clamp to 5s", fireTime)
	}
}

// BenchmarkKernelModes compares the ways to schedule work on the
// virtual-time kernel (DESIGN.md decision 1): goroutine park/wake
// versus pure event callbacks. A lone sleeper is always its own next
// dispatch and never parks (Proc.Sleep), so it measures that path;
// goroutines are two sleepers whose wakes interleave, and every one of
// their Sleeps pays both coroutine switches.
func BenchmarkKernelModes(b *testing.B) {
	b.Run("lone-sleeper", func(b *testing.B) {
		k := New(1)
		k.Go("worker", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		k := New(1)
		offsetSleepers(k, (b.N+1)/2)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("events", func(b *testing.B) {
		k := New(1)
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				k.After(time.Microsecond, tick)
			}
		}
		k.After(time.Microsecond, tick)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
