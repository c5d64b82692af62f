//go:build !race

package sim

import (
	"runtime"
	"testing"
)

// TestCondWaitDoesNotAllocate is the allocation gate of the park path
// every mailbox Recv takes: two tasks rally over a pair of one-waiter
// Conds, and a Wait/Signal round trip allocates nothing. A Cond links
// the waiter each task embeds, so no Wait, the first on a fresh Cond
// included, has a list to grow. Integer division, as
// testing.AllocsPerRun does it, so a stray runtime allocation cannot
// move the figure but one more per Wait does.
func TestCondWaitDoesNotAllocate(t *testing.T) {
	const warmup, measured = 100, 10000
	k := New(1)
	var ping, pong Cond
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

// TestSpawnedTaskAllocs is the allocation gate of a per-RPC task: a
// spawned task that Sleeps and then WaitTimeouts costs exactly 2
// allocations — its function's closure, which the caller makes, and
// the Proc of its incarnation, which the stale-Proc guard needs. The
// task struct and the one timer callback both waits share come back
// off the kernel's free list (3 when every spawn made both). The
// spawner's earlier wake makes the child's Sleep park on a timer rather
// than return in place. Warm: the coroutine, the task struct, the ready
// queue and the event structs are reused.
func TestSpawnedTaskAllocs(t *testing.T) {
	const warmup, measured = 100, 10000
	k := New(1)
	var c Cond
	var mallocs uint64
	k.Go("spawner", func(p *Proc) {
		spawn := func(n int) {
			for i := 0; i < n; i++ {
				d := Duration(2 + i%2)
				k.Go("rpc", func(p *Proc) {
					p.Sleep(d)
					if c.WaitTimeout(p, d) {
						t.Error("WaitTimeout reported a signal nobody sent")
					}
				})
				p.Sleep(1)
				p.Sleep(10)
			}
		}
		spawn(warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spawn(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mallocs / measured; got != 2 {
		t.Errorf("%d allocs per spawned task, want 2", got)
	}
}
