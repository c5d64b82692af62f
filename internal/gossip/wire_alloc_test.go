//go:build !race

package gossip

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// exchangeAllocs returns the heap allocations of one warm sendAsync of
// m from one node to a second that runs only serve, both endpoints
// counted, integer-divided as chord's TestRPCRoundTripAllocs does. Each
// exchange settles before the next leaves and delivers msgs messages.
func exchangeAllocs(t *testing.T, m wireMsg, msgs uint64) uint64 {
	t.Helper()
	const warmup, measured = 100, 2000
	k := sim.New(1)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	var nodes [2]*Node
	for i := range nodes {
		h, err := net.AddHostClass(ip.MustParseAddr("10.0.0.1").Add(uint32(i)), lan)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(h, 1)
	}
	caller, callee := nodes[0], nodes[1]
	callee.alive = true
	callee.learn(Update{ID: 1})
	k.Go("server", callee.serve)
	to := ip.Endpoint{Addr: callee.h.Addr(), Port: Port}
	var mallocs uint64
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		exchanges := func(n int) {
			for i := 0; i < n; i++ {
				caller.sendAsync(p, to, m)
				p.Sleep(time.Second)
			}
		}
		exchanges(warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		exchanges(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := net.Stats().MessagesDelivered, (warmup+measured)*msgs; got != want {
		t.Fatalf("%d messages delivered, want %d", got, want)
	}
	return mallocs / measured
}

// TestWireAllocs is the allocation gate of gossip's per-message path.
// A warm push of a known update costs 6 allocations: the sending task's
// closure and Proc, the dial's two Conns, and the serving task's
// closure and Proc. A warm digest round trip costs 6 as well. The
// inboxes and their rings come off the network's pool of receive
// states, the callee's even though it has seen the FIN when it closes
// (Conn.release reopens it); they cost 1 more per push and 2 more per
// digest while each Conn held its own.
// The digest, the push and the reply travel in boxes the two nodes'
// pools hand back and forth, so no payload allocates; boxing wireMsg by
// value into the sent any cost 1 more per push and 2 more per digest.
// The digest here names every update the callee knows, so its reply is
// empty, and the pushed update is already known to the callee. A push
// is five messages (SYN, SYN-ACK, the push, two FINs), a digest round
// trip six.
func TestWireAllocs(t *testing.T) {
	have := []uint64{1}
	push := []Update{{ID: 1}}
	if got := exchangeAllocs(t, wireMsg{Kind: kindPush, Updates: push}, 5); got != 6 {
		t.Errorf("%d allocs per push, want 6", got)
	}
	if got := exchangeAllocs(t, wireMsg{Kind: kindDigest, Have: have}, 6); got != 6 {
		t.Errorf("%d allocs per digest round trip, want 6", got)
	}
}

// pushBursts runs bursts of 256 pushes in flight at once, from one
// node to four that run only serve: two to warm up, then eight. It
// returns the allocations per push of the eight, and the growth of the
// runtime's stack memory from before the first burst to the end of the
// last, while the bursts' coroutines wait on the kernel's free list,
// per concurrent task: a push is a sending task and a serving one.
func pushBursts(t *testing.T) (allocs, stack uint64) {
	t.Helper()
	const burst, callees, warmup, measured = 256, 4, 2, 8
	k := sim.New(1)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	var nodes [1 + callees]*Node
	for i := range nodes {
		h, err := net.AddHostClass(ip.MustParseAddr("10.0.0.1").Add(uint32(i)), lan)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(h, 1)
	}
	caller, to := nodes[0], make([]ip.Endpoint, callees)
	for i, n := range nodes[1:] {
		n.alive = true
		n.learn(Update{ID: 1})
		k.Go("server", n.serve)
		to[i] = ip.Endpoint{Addr: n.h.Addr(), Port: Port}
	}
	push := wireMsg{Kind: kindPush, Updates: []Update{{ID: 1}}}
	var start, before, after runtime.MemStats
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		bursts := func(n int) {
			for range n {
				for i := range burst {
					caller.sendAsync(p, to[i%callees], push)
				}
				p.Sleep(time.Second)
			}
		}
		bursts(warmup)
		runtime.ReadMemStats(&before)
		bursts(measured)
		runtime.ReadMemStats(&after)
	})
	// A collection shrinks stacks and resets the size a reused
	// goroutine starts on (freshStacks).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&start)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := net.Stats().MessagesDelivered, uint64((warmup+measured)*burst*5); got != want {
		t.Fatalf("%d messages delivered, want %d", got, want)
	}
	return (after.Mallocs - before.Mallocs) / (measured * burst), (after.StackInuse - start.StackInuse) / (2 * burst)
}

// TestBurstAllocs is TestWireAllocs under concurrency: a warm burst of
// 256 pushes in flight at once allocates per push what one push does,
// 6. A task struct that returns keeps its coroutine on the kernel's
// free list, so a burst runs on the coroutines of the one before and
// makes none.
func TestBurstAllocs(t *testing.T) {
	if got, _ := pushBursts(t); got != 6 {
		t.Errorf("%d allocs per push in a burst of 256, want 6", got)
	}
}

// TestBurstStacks is the test that sees a send path whose frames
// outgrow a task's first 2 KiB stack: each task of a burst then runs
// on a 4 KiB one, and the kernel keeps it. In a fresh process, bursts
// of 256 pushes grow the runtime's stack memory by 2 112 bytes per
// concurrent task; with a 640-byte local added to Node.answer, by
// 4 160. The bound sits between.
func TestBurstStacks(t *testing.T) {
	got := freshStacks(t, "TestBurstStacks", func() uint64 {
		_, stack := pushBursts(t)
		return stack
	})
	t.Logf("stacks grow %d bytes per concurrent task", got)
	if got >= 3<<10 {
		t.Errorf("stacks grow %d bytes per concurrent task in bursts of 256 pushes, want under %d", got, 3<<10)
	}
}

// freshStacks returns measure's reading taken in a fresh run of the
// test binary, which runs only the test named. There every goroutine a
// coroutine runs on is new, and a new goroutine starts on 2 KiB. One
// that reuses a goroutine an earlier test ended starts on the size the
// last collection made of the stacks it scanned, 4 KiB once a burst's
// parked tasks were among them.
func freshStacks(t *testing.T, name string, measure func() uint64) uint64 {
	t.Helper()
	const env, mark = "P2PLAB_FRESH_STACKS", "\nstack bytes per task: "
	if os.Getenv(env) != "" {
		fmt.Printf("%s%d\n", mark, measure())
		return 0
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	i := bytes.LastIndex(out, []byte(mark))
	if err != nil || i < 0 {
		t.Fatalf("fresh run: %v\n%s", err, out)
	}
	var n uint64
	if _, err := fmt.Sscan(string(out[i+len(mark):]), &n); err != nil {
		t.Fatalf("fresh run's reading: %v\n%s", err, out)
	}
	return n
}
