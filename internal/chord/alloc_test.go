//go:build !race

package chord

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
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// TestRPCRoundTripAllocs is the allocation gate of chord's per-RPC
// path: a warm remote call, served by handle on a second node, costs
// exactly 4 allocations — the dial's two 64-byte Conns, 128 B in all
// (vnet's TestDialAllocs), and the handler task's closure and Proc
// (sim's TestSpawnedTaskAllocs). The two ends' inboxes and their rings
// come off the network's pool of receive states; they cost 2 more
// while each Conn held its own.
// The request and the reply travel in boxes the two nodes' pools hand
// back and forth, so neither payload allocates; boxing rpcMsg by value
// into the sent any cost 2 more, and a fresh task struct and timer
// callback per handler 2 more again. Only serve runs on the callee,
// so no maintenance RPC interleaves.
func TestRPCRoundTripAllocs(t *testing.T) {
	const warmup, measured = 100, 2000
	k := sim.New(1)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	lan := topo.LinkClass{Name: "lan", Down: netem.Gbps, Up: netem.Gbps, Latency: time.Millisecond}
	var nodes [2]*Node
	for i := range nodes {
		h, err := net.AddHostClass(ip.MustParseAddr("10.0.0.1").Add(uint32(i)), lan)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(h)
	}
	caller, callee := nodes[0], nodes[1]
	callee.alive = true
	k.Go("server", callee.serve)
	var mallocs uint64
	k.Go("caller", func(p *sim.Proc) {
		defer k.Stop()
		calls := func(n int) {
			for i := 0; i < n; i++ {
				reply := rpcMsg{Kind: rpcPing}
				err := caller.call(p, callee.ref.Addr, &reply)
				if err != nil || reply.Kind != rpcReply || !reply.OK {
					t.Errorf("call %d: reply %+v, error %v", i, reply, err)
					return
				}
			}
		}
		calls(warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		calls(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mallocs / measured; got != 4 {
		t.Errorf("%d allocs per remote call → handle round trip, want 4", got)
	}
}

// callBursts runs bursts of 256 caller tasks, released together by one
// Broadcast, that each make a remote call to one of four nodes that
// run only serve: two to warm up, then eight. It returns the
// allocations per call of the eight, and the growth of the runtime's
// stack memory from before the callers first ran to the end of the
// last burst, while the handlers' coroutines wait on the kernel's free
// list, per concurrent task: a call is a caller task and a handler.
func callBursts(t *testing.T) (allocs, stack uint64) {
	t.Helper()
	const burst, callees, warmup, measured = 256, 4, 2, 8
	k := sim.New(1)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	lan := topo.LinkClass{Name: "lan", Down: netem.Gbps, Up: netem.Gbps, Latency: time.Millisecond}
	var nodes [1 + callees]*Node
	for i := range nodes {
		h, err := net.AddHostClass(ip.MustParseAddr("10.0.0.1").Add(uint32(i)), lan)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(h)
	}
	caller := nodes[0]
	for _, n := range nodes[1:] {
		n.alive = true
		k.Go("server", n.serve)
	}
	var start sim.Cond
	for i := range burst {
		to := nodes[1+i%callees].ref.Addr
		k.Go("caller", func(p *sim.Proc) {
			for {
				start.Wait(p)
				reply := rpcMsg{Kind: rpcPing}
				err := caller.call(p, to, &reply)
				if err != nil || reply.Kind != rpcReply || !reply.OK {
					t.Errorf("caller %d: reply %+v, error %v", i, reply, err)
				}
			}
		})
	}
	var first, before, after runtime.MemStats
	k.Go("starter", func(p *sim.Proc) {
		defer k.Stop()
		bursts := func(n int) {
			for range n {
				start.Broadcast()
				p.Sleep(time.Second)
			}
		}
		p.Sleep(time.Second) // every caller waits
		bursts(warmup)
		runtime.ReadMemStats(&before)
		bursts(measured)
		runtime.ReadMemStats(&after)
	})
	// A collection shrinks stacks and resets the size a reused
	// goroutine starts on (freshStacks).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&first)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return (after.Mallocs - before.Mallocs) / (measured * burst), (after.StackInuse - first.StackInuse) / (2 * burst)
}

// TestBurstRPCAllocs is TestRPCRoundTripAllocs under concurrency: a
// warm burst of 256 calls allocates per call what one call does, 4. A
// task struct that returns keeps its coroutine on the kernel's free
// list, so each burst's handler tasks run on the coroutines of the one
// before and make none.
func TestBurstRPCAllocs(t *testing.T) {
	if got, _ := callBursts(t); got != 4 {
		t.Errorf("%d allocs per remote call in a burst of 256, want 4", got)
	}
}

// TestBurstStacks is the test that sees a call path whose frames
// outgrow a task's first 2 KiB stack: each task of a burst then runs
// on a 4 KiB one, and the kernel keeps it. In a fresh process, bursts
// of 256 calls grow the runtime's stack memory by 2 368 to 2 560 bytes
// per concurrent task, as a few tasks take the allocator's slow path;
// with a 640-byte local added to Node.answer, which grows only the
// serving tasks, by 3 456. The bound sits between.
func TestBurstStacks(t *testing.T) {
	got := freshStacks(t, "TestBurstStacks", func() uint64 {
		_, stack := callBursts(t)
		return stack
	})
	t.Logf("stacks grow %d bytes per concurrent task", got)
	if got >= 3<<10 {
		t.Errorf("stacks grow %d bytes per concurrent task in bursts of 256 calls, want under %d", got, 3<<10)
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
