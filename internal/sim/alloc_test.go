//go:build !race

package sim

import (
	"runtime"
	"testing"
)

// TestCondWaitDoesNotAllocate is the allocation gate of the park path
// every mailbox Recv takes: two tasks rally over a pair of one-waiter
// Conds, and once warm a Wait/Signal round trip allocates nothing. The
// waiter is embedded in the task, and Signal pops by shifting, so the
// waiter list keeps its backing array from one Wait to the next.
// Integer division, as testing.AllocsPerRun does it, so a stray runtime
// allocation cannot move the figure but one more per Wait does.
func TestCondWaitDoesNotAllocate(t *testing.T) {
	const warmup, measured = 100, 10000
	k := New(1)
	ping, pong := NewCond(k), NewCond(k)
	k.Go("ponger", func(p *Proc) {
		for i := 0; i < warmup+measured; i++ {
			pong.Wait(p)
			ping.Signal()
		}
	})
	var mallocs uint64
	k.Go("pinger", func(p *Proc) {
		rally := func(n int) {
			for i := 0; i < n; i++ {
				pong.Signal()
				ping.Wait(p)
			}
		}
		rally(warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rally(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mallocs / measured; got != 0 {
		t.Errorf("%d allocs per Wait/Signal round trip, want 0", got)
	}
}
