package vnet_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// deliveriesOfSize counts the net.deliver records on h in lg of a message
// of payload size: the size the network charged it, which a receiver
// does not see.
func deliveriesOfSize(lg *trace.Log, h *vnet.Host, size int) int {
	prefix := fmt.Sprintf("%d B from ", size+vnet.HeaderBytes)
	n := 0
	for _, ev := range lg.Filter("net.deliver") {
		if ev.Node == h.Addr().String() && strings.HasPrefix(ev.Msg, prefix) {
			n++
		}
	}
	return n
}

// TestFlowModelEndToEnd drives reliable connections over a flow-model
// network: concurrent bulk transfers through one shared uplink must
// all complete, share fairly (simultaneous completion), and leave a
// net.flow trail on the attached trace.
func TestFlowModelEndToEnd(t *testing.T) {
	k := sim.New(1)
	cfg := vnet.DefaultConfig()
	cfg.Model = netem.ModelFlow
	cfg.HandshakeTimeout = time.Hour
	net := vnet.NewNetwork(k, nil, cfg)
	log := trace.New(0)
	net.SetTrace(log)

	if _, ok := net.FlowStats(); !ok {
		t.Fatal("flow-model network runs no flow engine")
	}

	server, err := net.AddHost(ip.MustParseAddr("10.0.0.1"),
		netem.PipeConfig{Bandwidth: 2 * netem.Mbps, Delay: 5 * time.Millisecond},
		netem.PipeConfig{Bandwidth: 20 * netem.Mbps, Delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 3
	const size = 500_000 // 4 Mbit each; 3 concurrent over 2 Mbps = 6 s
	done := make([]sim.Time, clients)
	var hosts []*vnet.Host
	for i := 0; i < clients; i++ {
		h, err := net.AddHost(ip.MustParseAddr("10.0.1.1").Add(uint32(i)),
			netem.PipeConfig{Bandwidth: 20 * netem.Mbps, Delay: 5 * time.Millisecond},
			netem.PipeConfig{Bandwidth: 20 * netem.Mbps, Delay: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	k.Go("server", func(p *sim.Proc) {
		l, err := server.Listen(p, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < clients; i++ {
			c, err := l.Accept(p)
			if err != nil {
				t.Error(err)
				return
			}
			k.Go("serve", func(p *sim.Proc) {
				c.SendMeta(p, size, nil)
				c.Close(p)
			})
		}
	})
	for i, h := range hosts {
		i, h := i, h
		k.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			p.Sleep(100 * time.Millisecond)
			c, err := h.Dial(p, ip.Endpoint{Addr: server.Addr(), Port: 80})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if _, err := c.Recv(p); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			done[i] = p.Now()
		})
	}
	if err := k.RunUntil(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}

	var min, max sim.Time
	for i, at := range done {
		if at == 0 {
			t.Fatalf("client %d did not finish", i)
		}
		if n := deliveriesOfSize(log, hosts[i], size); n != 1 {
			t.Errorf("client %d was delivered %d message(s) of %d B, want 1", i, n, size)
		}
		if min == 0 || at < min {
			min = at
		}
		if at > max {
			max = at
		}
	}
	if spread := max.Sub(min); spread > 50*time.Millisecond {
		t.Errorf("completion spread %v; flow model should equalize concurrent transfers", spread)
	}
	if got := log.Count("net.flow"); got == 0 {
		t.Error("no net.flow trace events recorded")
	}
	stats, ok := net.FlowStats()
	if !ok {
		t.Fatal("FlowStats not available on a flow-model network")
	}
	if stats.Started == 0 || stats.Completed != stats.Started {
		t.Errorf("flow accounting off: %+v", stats)
	}
	if _, ok := vnet.NewNetwork(k, nil, vnet.DefaultConfig()).FlowStats(); ok {
		t.Error("pipe-model network reports FlowStats")
	}
	if hs, _ := hosts[0].Network().FlowStats(); hs != stats {
		t.Errorf("host's network reports flow stats %+v, want %+v", hs, stats)
	}
}

// TestFlowWindowConfig wires vnet.Config.FlowWindow through to the
// flow engine: a windowed network batches its solves (Flushes advance)
// and still delivers the traffic; a reconfigure mid-run drains the
// pending batch instead of waiting out the window.
func TestFlowWindowConfig(t *testing.T) {
	k := sim.New(2)
	cfg := vnet.DefaultConfig()
	cfg.Model = netem.ModelFlow
	cfg.FlowWindow = 50 * time.Millisecond
	cfg.HandshakeTimeout = time.Hour
	net := vnet.NewNetwork(k, nil, cfg)
	log := trace.New(0)
	net.SetTrace(log)

	server, err := net.AddHost(ip.MustParseAddr("10.0.0.1"),
		netem.PipeConfig{Bandwidth: 8 * netem.Mbps, Delay: 5 * time.Millisecond},
		netem.PipeConfig{Bandwidth: 8 * netem.Mbps, Delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.AddHost(ip.MustParseAddr("10.0.0.2"),
		netem.PipeConfig{Bandwidth: 8 * netem.Mbps, Delay: 5 * time.Millisecond},
		netem.PipeConfig{Bandwidth: 8 * netem.Mbps, Delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const size = 2_000_000
	var finished sim.Time
	k.Go("server", func(p *sim.Proc) {
		l, err := server.Listen(p, 80)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		c.SendMeta(p, size, nil)
		c.Close(p)
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := client.Dial(p, ip.Endpoint{Addr: server.Addr(), Port: 80})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Recv(p); err != nil {
			t.Error(err)
			return
		}
		finished = p.Now()
	})
	// Degrade the client's downlink mid-transfer: the reconfigure must
	// flush the batch synchronously, so the engine has settled rates
	// before the new capacity applies.
	k.At(sim.Time(500*time.Millisecond), func() {
		net.SetLinkClass(client, topo.LinkClass{
			Name: "degraded", Down: 4 * netem.Mbps, Up: 4 * netem.Mbps, Latency: 5 * time.Millisecond,
		})
	})
	if err := k.RunUntil(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if finished == 0 {
		t.Fatal("transfer did not finish under a windowed flow model")
	}
	if n := deliveriesOfSize(log, client, size); n != 1 {
		t.Errorf("the client was delivered %d message(s) of %d B, want 1", n, size)
	}
	stats, ok := net.FlowStats()
	if !ok {
		t.Fatal("FlowStats not available")
	}
	if stats.Flushes == 0 {
		t.Errorf("windowed network never flushed a batch: %+v", stats)
	}
	if stats.Batched == 0 {
		t.Errorf("windowed network batched no churn events: %+v", stats)
	}
}
