//go:build !race

package vnet_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/virt"
	"repro/internal/vnet"
)

// messageAllocs returns the heap allocations per connection message,
// sent with Conn.SendMeta and received with Conn.Recv across a DSL
// pair, in steady state: the connection is established, the pools
// (kernel events, xfers) are warm and each message is read before the
// next leaves. Integer division, as testing.AllocsPerRun does it, so a
// stray runtime allocation cannot move the figure but one more
// allocation per message does. A non-nil tracer records the run: the
// typed trace adds fill chunk slots, one chunk per 1 024 events, so
// tracing must not move the figure either. machines > 0 folds the pair
// onto a virt.Cluster of that many machines under topology tp, both
// hosts on the first (1) or one on each (2), so every message takes the
// cluster's route.
func messageAllocs(t *testing.T, kind netem.ModelKind, tracer *trace.Log, machines int, tp *topo.Topology) uint64 {
	t.Helper()
	const warmup, measured = 200, 2000
	const size = 1000
	k := sim.New(1)
	cfg := vnet.DefaultConfig()
	cfg.Model = kind
	var fabric vnet.Fabric
	var cluster *virt.Cluster
	if machines > 0 {
		var err error
		if cluster, err = virt.NewCluster(k, machines, tp); err != nil {
			t.Fatal(err)
		}
		fabric = cluster
	}
	n := vnet.NewNetwork(k, fabric, cfg)
	n.SetTrace(tracer)
	a, err := n.AddHostClass(policyA, topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHostClass(policyB, topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if cluster != nil {
		if err := cluster.PlaceSuccessive([]*vnet.Host{a, b}, 2/machines); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	k.Go("receiver", func(p *sim.Proc) {
		l, err := b.Listen(p, 80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for {
			if _, err := c.Recv(p); err != nil {
				return
			}
			received++
		}
	})
	var mallocs uint64
	k.Go("sender", func(p *sim.Proc) {
		c, err := a.Dial(p, ip.Endpoint{Addr: policyB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		burst := func(count int) {
			for i := 0; i < count; i++ {
				c.SendMeta(p, size, nil)
				p.Sleep(time.Second)
			}
		}
		burst(warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		burst(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
		c.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != warmup+measured {
		t.Fatalf("received %d messages, want %d", received, warmup+measured)
	}
	return mallocs / measured
}

// TestTransmitAllocs is the allocation gate of the transmit journey,
// exact because malloc counts carry no timing noise. Per message sent
// and received on an established connection, nothing allocates, under
// either model, unfolded or folded onto a virt.Cluster:
//
//   - Conn.SendMeta and Conn.Recv: nothing. The message is a value on
//     the sender's stack; the nil meta needs no box, and the receiver's
//     inbox ring is already sized.
//   - vnet's journey (transmit → xfer.attempt → step/done → deliver):
//     nothing. The xfer, its four bound method values and the kernel's
//     event structs are pooled. transmit builds the path once per
//     message into xfer.pathBuf, and a fabric's Route appends its pipes
//     there: a cluster adds at most four (two NICs, two CPU pipes),
//     which a fresh slice per message cost 3 allocations across two
//     machines and 1 on one.
//   - flow.Model.Transfer: nothing. The engine pools its own fluid xfer
//     with its links slice, its bound completion and the completion's
//     sim.Event handle, armed in place with Kernel.Arm (DESIGN.md
//     decision 8 has the 5 allocations this took unpooled).
//   - trace.Log, when attached: nothing. net.send, net.deliver and the
//     flow model's start/done are typed records (ip.Addr, ints, the
//     pipe's existing name) written into a chunk; while they went
//     through Add's Sprintf a traced message cost 13 more under the
//     pipe model and 17 more under the flow model.
//   - the cluster's group latency: nothing, with no group or with the
//     two hosts in two groups that declare a latency. It is one table
//     lookup; resolving nested groups cost 4 allocations a message.
func TestTransmitAllocs(t *testing.T) {
	// Each host in a group of its own, 10 ms apart.
	pair := topo.New()
	pair.MustAddGroup(topo.Group{Name: "a", Prefix: ip.MustParsePrefix("10.0.0.0/31"), Class: topo.DSL, Nodes: 1})
	pair.MustAddGroup(topo.Group{Name: "b", Prefix: ip.MustParsePrefix("10.0.0.2/31"), Class: topo.DSL, Nodes: 1})
	pair.MustSetLatency("a", "b", 10*time.Millisecond)
	for _, tc := range []struct {
		name string
		kind netem.ModelKind
	}{
		{"pipe", netem.ModelPipe},
		{"flow", netem.ModelFlow},
	} {
		if got := messageAllocs(t, tc.kind, nil, 0, nil); got != 0 {
			t.Errorf("%s: %d allocs per message, want 0", tc.name, got)
		}
		if got := messageAllocs(t, tc.kind, trace.New(0), 0, nil); got != 0 {
			t.Errorf("%s, traced: %d allocs per message, want 0 as untraced", tc.name, got)
		}
		for machines := 1; machines <= 2; machines++ {
			if got := messageAllocs(t, tc.kind, nil, machines, topo.New()); got != 0 {
				t.Errorf("%s, folded on %d machine(s): %d allocs per message, want 0", tc.name, machines, got)
			}
			if got := messageAllocs(t, tc.kind, nil, machines, pair); got != 0 {
				t.Errorf("%s, folded on %d machine(s), two groups: %d allocs per message, want 0", tc.name, machines, got)
			}
		}
	}
}

// rpcAllocs returns the heap allocations and bytes of one short RPC
// across a warm DSL pair, counting both endpoints: the client dials,
// sends a request with Conn.SendMeta, reads the reply with Conn.Recv
// and closes; the server accepts, reads the request, replies and
// closes. This is what chord and gossip pay per message, since they
// dial a connection for each. Each RPC settles before the next starts.
// After a warm-up it measures three windows of RPCs and returns the
// smallest figures of the three, each integer-divided as in
// messageAllocs: the RPC path is deterministic, so what it allocates
// shows in every window, and only what the rest of the process
// allocates meanwhile is filtered out.
func rpcAllocs(t *testing.T, kind netem.ModelKind, tracer *trace.Log) (allocs, bytes uint64) {
	t.Helper()
	const warmup, measured, windows = 200, 2000, 3
	const size = 100
	k := sim.New(1)
	cfg := vnet.DefaultConfig()
	cfg.Model = kind
	n := vnet.NewNetwork(k, nil, cfg)
	n.SetTrace(tracer)
	a, err := n.AddHostClass(policyA, topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHostClass(policyB, topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	var l *vnet.Listener
	served := 0
	k.Go("server", func(p *sim.Proc) {
		ln, err := b.Listen(p, 80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		l = ln
		for {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			if _, err := c.Recv(p); err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			c.SendMeta(p, size, nil)
			c.Close(p)
			served++
		}
	})
	allocs, bytes = ^uint64(0), ^uint64(0)
	k.Go("client", func(p *sim.Proc) {
		rpcs := func(count int) {
			for i := 0; i < count; i++ {
				c, err := a.Dial(p, ip.Endpoint{Addr: policyB, Port: 80})
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				c.SendMeta(p, size, nil)
				if _, err := c.Recv(p); err != nil {
					t.Errorf("client recv: %v", err)
					return
				}
				c.Close(p)
				p.Sleep(time.Second)
			}
		}
		p.Sleep(time.Second)
		rpcs(warmup)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rpcs(measured)
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/measured)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/measured)
		}
		l.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != warmup+windows*measured {
		t.Fatalf("served %d RPCs, want %d", served, warmup+windows*measured)
	}
	return allocs, bytes
}

// TestDialAllocs is the allocation gate of a per-connection RPC (one
// dial, request, reply and close), exact as TestTransmitAllocs is. It
// was 15 while a Conn pointed at its inbox Chan and its handshake Cond,
// the Chan at its two Conds, and a ring started at four slots, and 7
// while a fresh Cond's first Wait appended to a one-slot waiter list.
// The 4 left, both endpoints counted, under either model:
//
//   - the dialer's and the listener's Conn: 2, one object each, its
//     inbox Chan and handshake Cond held by value.
//   - the inbox ring of each: 2, one slot each; each side receives one
//     message, the request or the reply.
//
// It also pins their bytes: 2 × 128 for the Conns (TestConnSize) and
// 2 × 16 for the one-slot rings, 288 B an RPC. It was 384 B while a
// Conn stored its remote endpoint, a 64-bit id and a Chan with a
// senders' Cond (160 B), and a ring slot carried the message's size
// and sender (32 B). Both gates read the smallest of three windows of
// 2 000 RPCs: one window alone once read 291 B, the 3 B over being
// another party's allocation during the window.
//
// The three parks — the dialer on its handshake Cond until the SYN-ACK
// arrives, each side on its inbox in Recv — link the task's embedded
// waiter and allocate nothing. Everything else is pooled or warm: the
// listener's backlog ring, the connection tables, the transmit journey
// (TestTransmitAllocs), and the dialer's timer callback, bound once per
// task. Tracing adds no allocation: the journey's records are typed,
// and they fill chunks of the log, whose bytes the byte gate leaves out.
func TestDialAllocs(t *testing.T) {
	const wantAllocs, maxBytes = 4, 288
	for _, tc := range []struct {
		name string
		kind netem.ModelKind
	}{
		{"pipe", netem.ModelPipe},
		{"flow", netem.ModelFlow},
	} {
		allocs, bytes := rpcAllocs(t, tc.kind, nil)
		if allocs != wantAllocs {
			t.Errorf("%s: %d allocs per RPC, want %d", tc.name, allocs, wantAllocs)
		}
		if bytes > maxBytes {
			t.Errorf("%s: %d bytes allocated per RPC, want at most %d", tc.name, bytes, maxBytes)
		}
		if allocs, _ := rpcAllocs(t, tc.kind, trace.New(0)); allocs != wantAllocs {
			t.Errorf("%s, traced: %d allocs per RPC, want %d as untraced", tc.name, allocs, wantAllocs)
		}
	}
}
