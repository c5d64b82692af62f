//go:build !race

package gossip

import (
	"runtime"
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
// A warm push of a known update costs 7 allocations: the sending task's
// closure and Proc, the dial's two Conns, the callee's one-slot ring,
// and the serving task's closure and Proc. A warm digest round trip
// costs 8, one more ring for the caller's side, which reads the reply.
// The digest, the push and the reply travel in boxes the two nodes'
// pools hand back and forth, so no payload allocates; boxing wireMsg
// into Packet.Meta by value cost 1 more per push and 2 more per digest.
// The digest here names every update the callee knows, so its reply is
// empty, and the pushed update is already known to the callee. A push
// is five messages (SYN, SYN-ACK, the push, two FINs), a digest round
// trip six.
func TestWireAllocs(t *testing.T) {
	have := []uint64{1}
	push := []Update{{ID: 1}}
	if got := exchangeAllocs(t, wireMsg{Kind: kindPush, Updates: push}, 5); got != 7 {
		t.Errorf("%d allocs per push, want 7", got)
	}
	if got := exchangeAllocs(t, wireMsg{Kind: kindDigest, Have: have}, 6); got != 8 {
		t.Errorf("%d allocs per digest round trip, want 8", got)
	}
}

// TestBurstAllocs is TestWireAllocs under concurrency: a warm burst of
// 256 pushes in flight at once, from one node to four that run only
// serve, allocates per push what one push does, 7. The kernel keeps
// the coroutine of every task that returns on its first stack, so a
// burst runs on the coroutines of the one before. When it kept only 32,
// each burst re-made the rest, their iter.Pull closures and goroutines,
// and a send path whose frames outgrow a task's first 2 KiB stack puts
// its coroutines under that bound again: this is the test that sees it.
func TestBurstAllocs(t *testing.T) {
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
	var mallocs uint64
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bursts(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := net.Stats().MessagesDelivered, uint64((warmup+measured)*burst*5); got != want {
		t.Fatalf("%d messages delivered, want %d", got, want)
	}
	if got := mallocs / (measured * burst); got != 7 {
		t.Errorf("%d allocs per push in a burst of %d, want 7", got, burst)
	}
}
