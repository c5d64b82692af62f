package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// A Sleep whose own wake-up is the next dispatch returns in place
// (Proc.Sleep); every other Sleep parks. These tests drive each case
// that must park and check that the run is the one a park gives:
// the order of what ran, the clock, Stats, and Parks, the coroutine
// round trips actually paid.

// checkCounts fails unless the kernel's counters are want and parks.
func checkCounts(t *testing.T, k *Kernel, want Stats, parks uint64) {
	t.Helper()
	if got := k.Snapshot(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if got := k.Parks(); got != parks {
		t.Errorf("Parks() = %d, want %d", got, parks)
	}
}

func TestSleepBehindReadyTaskParks(t *testing.T) {
	k := New(1)
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1@"+p.Now().String())
		p.Sleep(time.Millisecond)
		order = append(order, "a2@"+p.Now().String())
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1@"+p.Now().String())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a1@0s", "b1@0s", "a2@1ms"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	checkCounts(t, k, Stats{Events: 1, Switches: 3, Spawns: 2}, 3)
}

func TestSleepTiedWithQueuedEventParks(t *testing.T) {
	k := New(1)
	var order []string
	k.At(Time(time.Millisecond), func() { order = append(order, "timer@"+k.Now().String()) })
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "woke@"+p.Now().String())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"timer@1ms", "woke@1ms"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v: an event queued first at the wake instant fires first", order, want)
	}
	checkCounts(t, k, Stats{Events: 2, Switches: 2, Spawns: 1}, 2)
}

func TestSleepBehindEarlierEventParks(t *testing.T) {
	k := New(1)
	var order []string
	k.At(Time(500*time.Microsecond), func() { order = append(order, "timer@"+k.Now().String()) })
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "woke@"+p.Now().String())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"timer@500µs", "woke@1ms"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	checkCounts(t, k, Stats{Events: 2, Switches: 2, Spawns: 1}, 2)
}

func TestSleepBeforeLaterEventReturnsInPlace(t *testing.T) {
	k := New(1)
	var order []string
	k.At(Time(2*time.Millisecond), func() { order = append(order, "timer@"+k.Now().String()) })
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "woke@"+p.Now().String())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"woke@1ms", "timer@2ms"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	checkCounts(t, k, Stats{Events: 2, Switches: 2, Spawns: 1}, 1)
}

// TestSleepPastHorizonNeverResumes ends a run with a stop event at 1 s,
// queued before the sleeper spawns. A wake-up before it returns in
// place; one at or after it parks behind the stop, which runs first
// and ends the run, so the sleeper never resumes, the clock stays at
// the stop and the sleeper's wake-up stays queued.
func TestSleepPastHorizonNeverResumes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sleep   Duration
		resumed bool
		stats   Stats
		parks   uint64
		queued  int
	}{
		{"before", 999 * time.Millisecond, true, Stats{Events: 2, Switches: 2, Spawns: 1}, 1, 0},
		{"at", time.Second, false, Stats{Events: 1, Switches: 1, Spawns: 1}, 1, 1},
		{"past", 2 * time.Second, false, Stats{Events: 1, Switches: 1, Spawns: 1}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(1)
			k.At(Time(time.Second), k.Stop)
			resumed := false
			k.Go("sleeper", func(p *Proc) {
				p.Sleep(tc.sleep)
				resumed = true
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if resumed != tc.resumed {
				t.Fatalf("Sleep(%v) before a stop at 1s: resumed = %v, want %v", tc.sleep, resumed, tc.resumed)
			}
			if k.Now() != Time(time.Second) {
				t.Fatalf("clock ends at %v, want the 1s stop", k.Now())
			}
			if got := k.QueueLen(); got != tc.queued {
				t.Fatalf("QueueLen() = %d after the stop, want %d", got, tc.queued)
			}
			checkCounts(t, k, tc.stats, tc.parks)
		})
	}
}

func TestSleepAfterStopUnwinds(t *testing.T) {
	k := New(1)
	resumed := false
	k.Go("stopper", func(p *Proc) {
		k.Stop()
		p.Sleep(time.Second)
		resumed = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed || k.Now() != 0 {
		t.Fatalf("Sleep after Stop: resumed = %v at %v, want an unwind at 0s", resumed, k.Now())
	}
	if k.QueueLen() != 1 {
		t.Fatalf("QueueLen() = %d, want the stopped sleeper's wake-up still queued", k.QueueLen())
	}
	checkCounts(t, k, Stats{Switches: 1, Spawns: 1}, 1)
}

func TestKilledTaskSleepKeepsClock(t *testing.T) {
	k := New(1)
	c := new(Cond)
	resumed := false
	k.Go("waiter", func(p *Proc) {
		defer func() {
			p.Sleep(time.Second)
			resumed = true
		}()
		c.Wait(p)
	})
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want a deadlock", err)
	}
	if resumed || k.Now() != 0 {
		t.Fatalf("killed task's deferred Sleep: resumed = %v at %v, want an unwind at 0s", resumed, k.Now())
	}
	checkCounts(t, k, Stats{Switches: 1, Spawns: 1}, 1)
}

func TestLoneYieldReturnsAtOnce(t *testing.T) {
	k := New(1)
	yields := 0
	k.Go("yielder", func(p *Proc) {
		for ; yields < 3; yields++ {
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if yields != 3 || k.Now() != 0 {
		t.Fatalf("%d yields, clock %v; want 3 at 0s", yields, k.Now())
	}
	checkCounts(t, k, Stats{Events: 3, Switches: 4, Spawns: 1}, 1)
}

// offsetSleepers spawns two tasks that each sleep n times, 2 µs at a
// time, one waking on odd and the other on even microseconds: every
// Sleep finds the other task's wake-up queued first, so every one parks.
func offsetSleepers(k *Kernel, n int) {
	k.Go("even", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(2 * time.Microsecond)
		}
	})
	k.Go("odd", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		for i := 1; i < n; i++ {
			p.Sleep(2 * time.Microsecond)
		}
	})
}

func TestInterleavedSleepersParkEveryTime(t *testing.T) {
	k := New(1)
	offsetSleepers(k, 100)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, k, Stats{Events: 200, Switches: 202, Spawns: 2}, 202)
}
