package virt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// nicContention sends one bulk connection message from each of n
// virtual nodes folded onto phys0 to n receivers on phys1
// simultaneously, so every transfer crosses the two shared physical
// NICs, and returns the per-receiver delivery instants. The
// connections are established first, so only the bulk messages share
// the NICs.
func nicContention(t *testing.T, model netem.ModelKind, n int) []sim.Time {
	t.Helper()
	k := sim.New(1)
	cluster, err := NewCluster(k, 2, topo.New())
	if err != nil {
		t.Fatal(err)
	}
	ncfg := vnet.DefaultConfig()
	ncfg.Model = model
	net := vnet.NewNetwork(k, cluster, ncfg)

	// Unconstrained access links: the physical NICs are the only
	// bottleneck, exactly the paper's folding-limit observation ("the
	// first limiting factor was the network speed").
	var senders, receivers []*vnet.Host
	for i := 0; i < n; i++ {
		s, err := net.AddHost(ip.MustParseAddr("10.0.0.1").Add(uint32(i)), netem.PipeConfig{}, netem.PipeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := net.AddHost(ip.MustParseAddr("10.0.1.1").Add(uint32(i)), netem.PipeConfig{}, netem.PipeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		senders, receivers = append(senders, s), append(receivers, r)
	}
	if err := cluster.PlaceSuccessive(append(append([]*vnet.Host{}, senders...), receivers...), n); err != nil {
		t.Fatal(err)
	}

	const size = 125_000_000 // 1 Gbit: alone, 1 s through the 1 Gbps NIC
	done := make([]sim.Time, n)
	for i := range receivers {
		i := i
		k.Go(fmt.Sprintf("recv-%d", i), func(p *sim.Proc) {
			l, err := receivers[i].Listen(p, 7000)
			if err != nil {
				t.Error(err)
				return
			}
			c, err := l.Accept(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Recv(p); err == nil {
				done[i] = p.Now()
			}
		})
	}
	for i := range senders {
		i := i
		k.Go(fmt.Sprintf("send-%d", i), func(p *sim.Proc) {
			p.Yield() // let the receivers listen
			c, err := senders[i].Dial(p, ip.Endpoint{Addr: receivers[i].Addr(), Port: 7000})
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(sim.Time(time.Second).Sub(p.Now()))
			c.SendMeta(p, size, nil)
		})
	}
	if err := k.RunUntil(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	return done
}

// TestClusterNICSharing: under the flow model, transfers folded onto
// one physical node share its NIC max-min fair and finish together;
// under the pipe model the NIC cursor serializes them into a
// staircase. This is the cross-traffic scenario the flow engine
// exists for.
func TestClusterNICSharing(t *testing.T) {
	const n = 4
	pipe := nicContention(t, netem.ModelPipe, n)
	flow := nicContention(t, netem.ModelFlow, n)

	spread := func(ts []sim.Time) time.Duration {
		min, max := ts[0], ts[0]
		for _, v := range ts {
			if v == 0 {
				t.Fatalf("a transfer did not complete: %v", ts)
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max.Sub(min)
	}
	if s := spread(pipe); s < 2*time.Second {
		t.Errorf("pipe model spread = %v, want a serialized staircase (>= 2s)", s)
	}
	if s := spread(flow); s > 10*time.Millisecond {
		t.Errorf("flow model spread = %v, want simultaneous completion", s)
	}
	// Fair sharing conserves capacity: the shared completion must land
	// near the staircase's last step (n seconds of NIC time), not
	// before the pipe model's first completion.
	if flow[0] < pipe[0] {
		t.Errorf("flow completion %v earlier than uncontended pipe completion %v", flow[0], pipe[0])
	}
}
