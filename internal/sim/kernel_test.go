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
	c := NewCond(k)
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

func TestRunUntilHorizon(t *testing.T) {
	k := New(1)
	var last Time
	var unwound []string
	orphanRan := false
	k.Go("ticker", func(p *Proc) {
		// Killed at the horizon: a cleanup that blocks (the shape of
		// defer conn.Close(p)) must unwind at once, and a task spawned
		// while unwinding must never run.
		defer func() { unwound = append(unwound, p.Name()) }()
		defer p.Sleep(time.Hour)
		defer p.Go("orphan", func(*Proc) { orphanRan = true })
		for {
			p.Sleep(time.Second)
			last = p.Now()
		}
	})
	full := NewChan[int](k, 1)
	k.Go("sender", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		defer full.Send(p, 3) // blocks on the full channel when not killed
		full.Send(p, 1)
		full.Send(p, 2)
	})
	if err := k.RunUntil(Time(10*time.Second) + 1); err != nil {
		t.Fatal(err)
	}
	if want := []string{"ticker", "sender"}; !slices.Equal(unwound, want) {
		t.Fatalf("unwound %v, want %v (spawn order, blocking cleanups cut short)", unwound, want)
	}
	if orphanRan {
		t.Fatal("a task spawned by an unwinding task ran its body")
	}
	if last != Time(10*time.Second) {
		t.Fatalf("last tick at %v, want 10s", last)
	}
	if k.Now() != Time(10*time.Second)+1 {
		t.Fatalf("final clock %v, want horizon", k.Now())
	}
}

func TestRunUntilStillReportsEarlyDeadlock(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := k.RunUntil(Time(time.Hour))
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunUntil = %v, want DeadlockError before horizon", err)
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
	never, ca, cb := NewCond(k), NewCond(k), NewCond(k)
	k.Go("parked", waitOn(never))
	k.Go("a", waitOn(ca))
	k.Go("b", waitOn(cb))
	k.Go("worker", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
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
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("iterations = %d, want 5", n)
	}
	if want := []string{"b", "a", "parked", "worker"}; !slices.Equal(unwound, want) {
		t.Fatalf("unwound %v, want %v", unwound, want)
	}
}

// goroutinesSettleAt waits for the goroutine count to come back to base.
func goroutinesSettleAt(t *testing.T, base int, when string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() != base; i++ {
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

func TestRunLeavesNoGoroutines(t *testing.T) {
	sleepers := func(k *Kernel, n int, d Duration) {
		for i := 0; i < n; i++ {
			k.Go("sleeper", func(p *Proc) { p.Sleep(d) })
		}
	}
	cases := []struct {
		name string
		run  func(k *Kernel) error
	}{
		// More tasks than the idle list holds, so coroutines end both ways.
		{"completion", func(k *Kernel) error {
			sleepers(k, 4*maxIdleCoros, time.Second)
			return k.Run()
		}},
		{"Stop", func(k *Kernel) error {
			sleepers(k, 10, time.Hour)
			k.After(time.Second, k.Stop)
			return k.Run()
		}},
		{"horizon", func(k *Kernel) error {
			sleepers(k, 10, time.Hour)
			return k.RunUntil(Time(time.Minute))
		}},
		{"deadlock", func(k *Kernel) error {
			sleepers(k, 10, time.Second)
			c := NewCond(k)
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
