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
	"repro/internal/vnet"
)

// datagramAllocs returns the heap allocations per datagram, sent and
// delivered across a DSL pair, in steady state: the pools (kernel
// events, xfers) are warm and each datagram lands before the next
// leaves. Integer division, as testing.AllocsPerRun does it, so a stray
// runtime allocation cannot move the figure but one more allocation per
// message does. A non-nil tracer records the run: the typed trace adds
// fill chunk slots, one chunk per 1 024 events, so tracing must not
// move the figure either.
func datagramAllocs(t *testing.T, kind netem.ModelKind, payload int, tracer *trace.Log) uint64 {
	t.Helper()
	const warmup, measured = 200, 2000
	k := sim.New(1)
	cfg := vnet.DefaultConfig()
	cfg.Model = kind
	n := vnet.NewNetwork(k, nil, cfg)
	n.SetTrace(tracer)
	a, err := n.AddHostClass(policyA, topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHostClass(policyB, topo.DSL); err != nil {
		t.Fatal(err)
	}
	var mallocs uint64
	k.Go("sender", func(p *sim.Proc) {
		pc, err := a.ListenPacket(p, 0)
		if err != nil {
			t.Errorf("listen-packet: %v", err)
			return
		}
		data := make([]byte, payload)
		dst := ip.Endpoint{Addr: policyB, Port: 9}
		burst := func(count int) {
			for i := 0; i < count; i++ {
				pc.SendTo(p, dst, data)
				p.Sleep(time.Second)
			}
		}
		burst(warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		burst(measured)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.MessagesDelivered != warmup+measured {
		t.Fatalf("stats = %+v, want %d datagrams delivered", st, warmup+measured)
	}
	return mallocs / measured
}

// TestTransmitAllocs is the allocation gate of the transmit journey,
// exact because malloc counts carry no timing noise. Per datagram sent
// and delivered, who allocates:
//
//   - PacketConn.SendTo: 1, the defensive copy of the caller's payload
//     (none for an empty one). It is the only allocation left, under
//     either model.
//   - vnet's journey (transmit → xfer.attempt → step/done → deliver):
//     nothing. The xfer, its four bound method values and the kernel's
//     event structs are pooled; the path lives in xfer.pathBuf.
//   - flow.Model.Transfer: nothing. The engine pools its own fluid xfer
//     with its links slice, its bound completion and the completion's
//     sim.Event handle, armed in place with Kernel.Arm (DESIGN.md
//     decision 8 has the 5 allocations this took unpooled).
//   - trace.Log, when attached: nothing. net.send, net.deliver and the
//     flow model's start/done are typed records (ip.Addr, ints, the
//     pipe's existing name) written into a chunk; while they went
//     through Add's Sprintf a traced datagram cost 13 more under the
//     pipe model and 17 more under the flow model.
func TestTransmitAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    netem.ModelKind
		payload int
		want    uint64
	}{
		{"pipe/empty-payload", netem.ModelPipe, 0, 0},
		{"pipe", netem.ModelPipe, 8, 1},
		{"flow/empty-payload", netem.ModelFlow, 0, 0},
		{"flow", netem.ModelFlow, 8, 1},
	} {
		if got := datagramAllocs(t, tc.kind, tc.payload, nil); got != tc.want {
			t.Errorf("%s: %d allocs per datagram, want %d", tc.name, got, tc.want)
		}
		if got := datagramAllocs(t, tc.kind, tc.payload, trace.New(0)); got != tc.want {
			t.Errorf("%s, traced: %d allocs per datagram, want %d as untraced", tc.name, got, tc.want)
		}
	}
}
