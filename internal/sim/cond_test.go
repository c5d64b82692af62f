package sim

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestStateSizes pins the per-task state every spawn pays and the Cond
// that a per-RPC connection holds two of: a task stays in the 112-byte
// size class, a Cond is two pointers and a Chan 56 bytes. A field that
// pushes a struct past its class fails here rather than silently
// costing every endpoint the next class up.
func TestStateSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(task{}); got > 128 {
		t.Errorf("task is %d bytes, want at most 128", got)
	}
	if got := unsafe.Sizeof(Cond{}); got != 16 {
		t.Errorf("Cond is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Chan[int]{}); got != 56 {
		t.Errorf("Chan is %d bytes, want 56", got)
	}
}

// condLike is what a waiter script drives: the Cond under test or its
// reference.
type condLike interface {
	Wait(p *Proc)
	WaitTimeout(p *Proc, d Duration) bool
	Signal()
	Broadcast()
	Len() int
}

// refCond is the slice-backed condition variable the linked waiter list
// replaced, kept as FuzzCondWaiters' oracle: FIFO by append and
// shift, a timed-out waiter removed by a scan, a waiter and its timeout
// closure made per wait.
type refCond struct {
	k       *Kernel
	waiters []*refWaiter
}

type refWaiter struct {
	t               *task
	fired, timedOut bool
	ev              *event
	gen             uint64
}

func (c *refCond) Wait(p *Proc) { c.WaitTimeout(p, 0) }

func (c *refCond) WaitTimeout(p *Proc, d Duration) bool {
	w := &refWaiter{t: p.t}
	c.waiters = append(c.waiters, w)
	if d > 0 {
		w.ev = c.k.push(c.k.now.Add(d), func() {
			if w.fired {
				return
			}
			w.fired, w.timedOut = true, true
			for i, x := range c.waiters {
				if x == w {
					c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
					break
				}
			}
			c.k.wake(w.t)
		})
		w.gen = w.ev.gen
	}
	p.park()
	return !w.timedOut
}

func (c *refCond) Signal() {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if w.fired {
			continue
		}
		w.fired = true
		if w.ev != nil {
			c.k.cancel(w.ev, w.gen)
		}
		c.k.wake(w.t)
		return
	}
}

func (c *refCond) Broadcast() {
	for len(c.waiters) > 0 {
		c.Signal()
	}
}

func (c *refCond) Len() int { return len(c.waiters) }

// check reports the first broken invariant of the waiter list: it ends
// at tail, and every task on it records this Cond.
func (c *Cond) check() error {
	if (c.head == nil) != (c.tail == nil) {
		return fmt.Errorf("head %p, tail %p: one end is missing", c.head, c.tail)
	}
	var last *task
	for t := c.head; t != nil; t = t.cw.next {
		if t.cw.c != c {
			return fmt.Errorf("task %s is linked on %p but records %p", t.name, c, t.cw.c)
		}
		last = t
	}
	if last != c.tail {
		return fmt.Errorf("list ends at %p, tail is %p", last, c.tail)
	}
	return nil
}

// runCondScript runs script on a fresh kernel over two conditions made
// by mk and returns the log of every operation's instant, outcome, the
// two Lens and the queue length after it, and the run's end.
//
// script[0] picks 1–8 tasks; every further byte is one operation of
// task i mod n, in order. An operation byte b below 224 names its kind
// (b mod 6), its Cond (b/6 mod 2) and a duration of 0–3 ms (b/12 mod
// 4): Wait, WaitTimeout (0 waits forever), Signal, Broadcast, Sleep (0
// yields), or a callback that Signals (even duration) or Broadcasts
// (odd) that duration later. A byte from 224 up spawns a child that
// makes one Sleep (v/2 even, v = b−224 mod 16) or one WaitTimeout on
// Cond v mod 2, for v/4 mod 4 ms, and returns: the kernel recycles the
// struct of every task that returns, so later spawns reuse it
// mid-script. A child spawned by a byte below 240 first recurses
// through 8 KiB of frames, so it returns on a grown stack, and its
// coroutine is one the kernel keeps idle only up to a bound; a
// shallow child's coroutine is always kept. Each child checks that it
// starts as a fresh task (Proc.CheckFresh) and logs which way the task
// that last held its struct ended. Tasks left waiting with no wake
// pending end the run as a deadlock, which is logged like any other
// end.
func runCondScript(t *testing.T, script []byte, mk func(k *Kernel) [2]condLike) []string {
	k := New(1)
	cs := mk(k)
	// A line is formatted when the run ends, not in note: fmt's frames
	// would take a shallow child off its first stack.
	type line struct {
		now           Time
		who           string
		j             int
		op            string
		ok            bool
		len0, len1, q int
	}
	lines := make([]line, 0, len(script)+64)
	note := func(who string, j int, op string, ok bool) {
		lines = append(lines, line{k.now, who, j, op, ok, cs[0].Len(), cs[1].Len(), k.QueueLen()})
		for i, c := range cs {
			if c, live := c.(*Cond); live {
				if err := c.check(); err != nil {
					t.Fatalf("after %s op%d %s: cond %d: %v", who, j, op, i, err)
				}
			}
		}
	}
	ended := make(map[*task]string, 128) // how the last task on each struct ended
	spawn := func(j int, v byte, deep bool) {
		name := fmt.Sprintf("child%d", j)
		c, sleep := cs[v%2], v/2%2 == 0
		d := Duration(v/4%4) * time.Millisecond
		sleepOp, waitOp := fmt.Sprintf("child-sleep(%v)", d), fmt.Sprintf("child-wait-timeout(%v)", d)
		k.Go(name, func(p *Proc) {
			if err := p.CheckFresh(); err != nil {
				t.Fatalf("%s op%d: a task %s", name, j, err)
			}
			if p.Incarnation() > 0 {
				note(name, j, "reuses a task that "+ended[p.t], true)
			}
			if deep {
				Recurse(8 << 10)
			}
			if sleep {
				p.Sleep(d)
				note(name, j, sleepOp, true)
				ended[p.t] = "slept"
				return
			}
			ok := c.WaitTimeout(p, d)
			note(name, j, waitOp, ok)
			if ok {
				ended[p.t] = "was signalled"
			} else {
				ended[p.t] = "timed out"
			}
		})
	}
	n := 1
	var ops []byte
	if len(script) > 0 {
		n, ops = 1+int(script[0]%8), script[1:]
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		k.Go(name, func(p *Proc) {
			defer func() { ended[p.t] = "ran a script" }()
			for j := i; j < len(ops); j += n {
				b := ops[j]
				if b >= 224 {
					spawn(j, (b-224)%16, b < 240)
					note(name, j, "spawn", true)
					continue
				}
				c := cs[b/6%2]
				d := Duration(b/12%4) * time.Millisecond
				switch b % 6 {
				case 0:
					c.Wait(p)
					note(name, j, "wait", true)
				case 1:
					ok := c.WaitTimeout(p, d)
					note(name, j, fmt.Sprintf("wait-timeout(%v)", d), ok)
				case 2:
					c.Signal()
					note(name, j, "signal", true)
				case 3:
					c.Broadcast()
					note(name, j, "broadcast", true)
				case 4:
					p.Sleep(d)
					note(name, j, fmt.Sprintf("sleep(%v)", d), true)
				case 5:
					broadcast := d%(2*time.Millisecond) != 0
					k.Schedule(k.now.Add(d), func() {
						if broadcast {
							c.Broadcast()
						} else {
							c.Signal()
						}
						note("callback", j, fmt.Sprintf("broadcast=%v", broadcast), true)
					})
				}
			}
		})
	}
	err := k.Run()
	var log []string
	for _, l := range lines {
		log = append(log, fmt.Sprintf("%v %s op%d %s ok=%v len=%d,%d q=%d",
			l.now, l.who, l.j, l.op, l.ok, l.len0, l.len1, l.q))
	}
	return append(log, fmt.Sprintf("end %v err=%v stats=%+v q=%d", k.now, err, k.Snapshot(), k.QueueLen()))
}

// reuseScripts are waiter scripts whose later spawn takes over the
// struct of a child that has returned, after each way a wait can end.
var reuseScripts = []struct {
	script []byte
	want   string // the reuse line of the log
}{
	// A child times out of a 1 ms WaitTimeout; t0 sleeps past it and
	// spawns a second child.
	{[]byte{0, 240 + 6, 4 + 24, 240 + 6}, "reuses a task that timed out"},
	// A child waits with a 1 ms timeout; t0 yields to it, signals it,
	// yields again so it returns, and spawns a sleeping child.
	{[]byte{0, 240 + 6, 4, 2, 4, 240}, "reuses a task that was signalled"},
}

// idleScript spawns 40 deep children that sleep 1 ms, sleeps 2 ms while
// they return, then spawns two rounds of 40 shallow ones the same way:
// the deep ones leave 40 free structs whose coroutines have left their
// first stacks, and each shallow round runs on those and makes none.
var idleScript = slices.Concat([]byte{0},
	bytes.Repeat([]byte{224 + 4}, 40), []byte{4 + 24},
	bytes.Repeat([]byte{240 + 4}, 40), []byte{4 + 24},
	bytes.Repeat([]byte{240 + 4}, 40), []byte{4 + 24})

// TestCondScriptIdleCoros checks that idleScript, which FuzzCondWaiters
// replays, runs its shallow rounds on the deep round's coroutines as it
// says: a Cond-side callback reads the free structs' coroutines after
// each round.
func TestCondScriptIdleCoros(t *testing.T) {
	var seen [][]*coro
	runCondScript(t, idleScript, func(k *Kernel) [2]condLike {
		for _, at := range []Duration{2, 4, 6} {
			k.At(Time(at*time.Millisecond)-1, func() {
				seen = append(seen, k.IdleCoros())
			})
		}
		return [2]condLike{new(Cond), new(Cond)}
	})
	if len(seen) != 3 {
		t.Fatalf("%d reads of the free coroutines, want 3", len(seen))
	}
	deep := make(map[*coro]bool, len(seen[0]))
	for _, c := range seen[0] {
		deep[c] = true
	}
	for i, idle := range seen {
		if len(idle) != 40 {
			t.Errorf("after round %d: %d free coroutines, want 40", i+1, len(idle))
		}
		for _, c := range idle {
			if !deep[c] {
				t.Errorf("round %d made a coroutine", i+1)
				break
			}
		}
	}
}

// TestCondScriptsReuseTasks checks that reuseScripts, which
// FuzzCondWaiters replays, do reuse a struct the way each says.
func TestCondScriptsReuseTasks(t *testing.T) {
	for _, seed := range reuseScripts {
		log := runCondScript(t, seed.script, func(*Kernel) [2]condLike {
			return [2]condLike{new(Cond), new(Cond)}
		})
		if !slices.ContainsFunc(log, func(line string) bool { return strings.Contains(line, seed.want) }) {
			t.Errorf("script %v: no child %s; log:\n%s", seed.script, seed.want, strings.Join(log, "\n"))
		}
	}
}

// FuzzCondWaiters runs random scripts of Wait, WaitTimeout, Signal,
// Broadcast and Sleep over up to eight tasks and two Conds, once on
// the linked waiter list and once on refCond: every operation must
// return at the same instant with the same outcome and the same Lens
// and queue length, so the two release waiters in the same order and
// time out the same ones, and the list's own invariants hold after
// each operation. Spawned children return mid-script, so later spawns
// run on recycled task structs, and each must start fresh.
func FuzzCondWaiters(f *testing.F) {
	f.Add([]byte{3, 1 + 12, 0, 2, 13, 3, 4})
	f.Add([]byte{7, 1 + 24, 1 + 36, 1 + 12, 1, 7, 1 + 30, 5 + 12, 4 + 24, 2, 3, 8, 9})
	f.Add([]byte{2, 0, 6, 5 + 12, 5 + 30, 4 + 36, 1 + 12, 3})
	for _, seed := range reuseScripts {
		f.Add(seed.script)
	}
	f.Add(idleScript)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			return
		}
		got := runCondScript(t, script, func(*Kernel) [2]condLike {
			return [2]condLike{new(Cond), new(Cond)}
		})
		want := runCondScript(t, script, func(k *Kernel) [2]condLike {
			return [2]condLike{&refCond{k: k}, &refCond{k: k}}
		})
		for i := range max(len(got), len(want)) {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("line %d of the log:\n got  %q\n want %q", i, g, w)
			}
		}
	})
}
