//go:build !race

package chord

import (
	"runtime"
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
// exactly 6 allocations — the dial's two 128-byte Conns and their
// 16-byte one-slot rings, 288 B in all (vnet's TestDialAllocs), and
// the handler task's closure and Proc (sim's TestSpawnedTaskAllocs).
// The request and the reply travel in boxes the two nodes' pools hand
// back and forth, so neither payload allocates; boxing rpcMsg into
// Packet.Meta by value cost 2 more, and a fresh task struct and timer
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
	if got := mallocs / measured; got != 6 {
		t.Errorf("%d allocs per remote call → handle round trip, want 6", got)
	}
}

// TestBurstRPCAllocs is TestRPCRoundTripAllocs under concurrency: 256
// caller tasks, released together by one Broadcast, each make a remote
// call to one of four nodes that run only serve, and a warm burst
// allocates per call what one call does, 6. The kernel keeps the
// coroutine of every task that returns on its first stack, so each
// burst's handler tasks run on the coroutines of the one before; when
// it kept only 32, every burst re-made the rest.
func TestBurstRPCAllocs(t *testing.T) {
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
	var mallocs uint64
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bursts(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mallocs / (measured * burst); got != 6 {
		t.Errorf("%d allocs per remote call in a burst of %d, want 6", got, burst)
	}
}
