package vnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// deliveries counts the net.deliver records on h in lg: the probes
// (Host.SendOnce) that have landed there so far.
func deliveries(lg *trace.Log, h *Host) int {
	n := 0
	for _, ev := range lg.Filter("net.deliver") {
		if ev.Node == h.Addr().String() {
			n++
		}
	}
	return n
}

// TestPartitionBlocksAndHeals: one-way probes between partitioned hosts
// are dropped in both directions; traffic inside one side still flows;
// the heal restores everything.
func TestPartitionBlocksAndHeals(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	c, err := e.n.AddHost(ip.MustParseAddr("10.0.0.3"), netem.PipeConfig{}, netem.PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lg := trace.New(0)
	e.n.SetTrace(lg)

	id := e.n.Partition([]ip.Addr{a.Addr()}, []ip.Addr{b.Addr()})
	e.run(t, func(p *sim.Proc) {
		// a -> b blocked, b -> a blocked, a -> c unaffected.
		a.SendOnce(ip.Endpoint{Addr: b.Addr(), Port: 4000}, 1)
		b.SendOnce(ip.Endpoint{Addr: a.Addr(), Port: 4000}, 1)
		a.SendOnce(ip.Endpoint{Addr: c.Addr(), Port: 4000}, 1)
		p.Sleep(50 * time.Millisecond)
		if n := deliveries(lg, b); n != 0 {
			t.Errorf("partitioned a->b delivered %d probes", n)
		}
		if n := deliveries(lg, a); n != 0 {
			t.Errorf("partitioned b->a delivered %d probes", n)
		}
		if n := deliveries(lg, c); n != 1 {
			t.Errorf("unpartitioned a->c delivered %d probes, want 1", n)
		}

		e.n.Heal(id)
		e.n.Heal(id) // healing twice is harmless
		a.SendOnce(ip.Endpoint{Addr: b.Addr(), Port: 4000}, 1)
		p.Sleep(50 * time.Millisecond)
		if n := deliveries(lg, b); n != 1 {
			t.Errorf("healed a->b delivered %d probes, want 1", n)
		}
	})
	if e.n.Stats().MessagesDropped != 2 {
		t.Errorf("dropped %d messages, want 2", e.n.Stats().MessagesDropped)
	}
}

// TestPartitionReliableRetransmitSurvives: a reliable message sent
// into a short partition is retransmitted with backoff and delivered
// after the heal — short partitions are transparent to connections.
func TestPartitionReliableRetransmitSurvives(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	id := 0
	e.run(t, func(p *sim.Proc) {
		l, _ := b.Listen(p, 5000)
		var srv *Conn
		done := new(sim.Cond)
		e.k.Go("server", func(p *sim.Proc) {
			srv, _ = l.Accept(p)
			if srv == nil {
				return
			}
			if _, err := srv.Recv(p); err != nil {
				t.Errorf("server recv: %v", err)
			}
			done.Broadcast()
		})
		conn, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 5000})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		// Partition for ~1 s: the first retransmits fail, a later
		// backoff lands after the heal.
		id = e.n.Partition([]ip.Addr{a.Addr()}, []ip.Addr{b.Addr()})
		e.k.After(time.Second, func() { e.n.Heal(id) })
		if err := conn.SendMeta(p, len("through the storm"), "through the storm"); err != nil {
			t.Fatalf("send: %v", err)
		}
		done.Wait(p)
	})
	if e.n.Stats().Retransmits == 0 {
		t.Error("no retransmissions recorded across the partition")
	}
}

// TestPartitionResetsExhaustedConn: a partition longer than the whole
// retransmission schedule resets the sender's connection (TCP's
// give-up), surfacing as ErrClosed instead of a silent forever-stall.
func TestPartitionResetsExhaustedConn(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	e.run(t, func(p *sim.Proc) {
		l, _ := b.Listen(p, 5000)
		e.k.Go("server", func(p *sim.Proc) {
			c, _ := l.Accept(p)
			if c != nil {
				// The remote side stays half-open (no packet can tell
				// it about the reset); a bounded wait stands in for the
				// application-level timeout a real server would run.
				c.RecvTimeout(p, 2*time.Minute)
			}
		})
		conn, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 5000})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		e.n.Partition([]ip.Addr{a.Addr()}, []ip.Addr{b.Addr()}) // never healed
		if err := conn.SendMeta(p, len("doomed"), "doomed"); err != nil {
			t.Fatalf("send: %v", err)
		}
		// The reset closes the local inbox once retransmits exhaust
		// (RTO 200ms doubling 8 times ~ 51s of backoff).
		if _, err := conn.Recv(p); !errors.Is(err, ErrClosed) {
			t.Errorf("recv after exhausted partition: %v, want ErrClosed", err)
		}
	})
}

// TestSetLinkUpDown: a downed interface blocks traffic in both
// directions and SetLinkUp(true) restores it.
func TestSetLinkUpDown(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	lg := trace.New(0)
	e.n.SetTrace(lg)
	e.run(t, func(p *sim.Proc) {
		e.n.SetLinkUp(b, false)
		if !a.LinkUp() || b.LinkUp() {
			t.Error("link state flags wrong")
		}
		a.SendOnce(ip.Endpoint{Addr: b.Addr(), Port: 4000}, 1)
		p.Sleep(100 * time.Millisecond)
		if deliveries(lg, b) != 0 {
			t.Error("probe delivered to downed host")
		}
		e.n.SetLinkUp(b, true)
		a.SendOnce(ip.Endpoint{Addr: b.Addr(), Port: 4000}, 1)
		p.Sleep(100 * time.Millisecond)
		if deliveries(lg, b) != 1 {
			t.Error("probe not delivered after link-up")
		}
	})
}

// pingWorkload runs a fixed ping schedule against host b, applying
// mutate (if any) mid-run, and returns the rendered trace.
func pingWorkload(t *testing.T, model netem.ModelKind, mutate func(n *Network, b *Host)) string {
	t.Helper()
	k := sim.New(1)
	cfg := DefaultConfig()
	cfg.Model = model
	n := NewNetwork(k, nil, cfg)
	lg := trace.New(0)
	n.SetTrace(lg)
	a, err := n.AddHostClass(ip.MustParseAddr("10.0.0.1"), topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHostClass(ip.MustParseAddr("10.0.0.2"), topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		k.At(sim.Time(450*time.Millisecond), func() { mutate(n, b) })
	}
	k.Go("pinger", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			a.Ping(p, b.Addr(), 1000, time.Second)
			p.Sleep(100 * time.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestIdenticalReconfigureTraceIdentical is the network-level half of
// the reconfiguration property: SetLinkClass to the class the host
// already has must be byte-identical to no reconfiguration at all,
// under both link models.
func TestIdenticalReconfigureTraceIdentical(t *testing.T) {
	for _, model := range []netem.ModelKind{netem.ModelPipe, netem.ModelFlow} {
		plain := pingWorkload(t, model, nil)
		noop := pingWorkload(t, model, func(n *Network, b *Host) {
			n.SetLinkClass(b, topo.DSL) // the class it already has
		})
		if plain != noop {
			t.Errorf("model %v: no-op SetLinkClass perturbed the trace", model)
		}
		changed := pingWorkload(t, model, func(n *Network, b *Host) {
			n.SetLinkClass(b, topo.Modem)
		})
		if plain == changed {
			t.Errorf("model %v: real SetLinkClass left the trace untouched", model)
		}
	}
}

// TestSetLinkClassRewiresRTT: after a mid-run class change the
// measured ping RTT follows the new class's bandwidth and latency.
func TestSetLinkClassRewiresRTT(t *testing.T) {
	e := newEnv()
	a, err := e.n.AddHostClass(ip.MustParseAddr("10.1.0.1"), topo.Campus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.n.AddHostClass(ip.MustParseAddr("10.1.0.2"), topo.Campus)
	if err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) {
		before, ok := a.Ping(p, b.Addr(), 1000, time.Second)
		if !ok {
			t.Fatal("ping before reconfigure lost")
		}
		e.n.SetLinkClass(a, topo.Modem)
		e.n.SetLinkClass(b, topo.Modem)
		after, ok := a.Ping(p, b.Addr(), 1000, 30*time.Second)
		if !ok {
			t.Fatal("ping after reconfigure lost")
		}
		// Campus: 5 ms latency each way; modem: 100 ms plus ~0.25 s of
		// 33.6 kbps serialization per direction.
		if after < 4*before {
			t.Errorf("RTT barely moved after degrade: %v -> %v", before, after)
		}
	})
}
