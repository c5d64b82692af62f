package vnet

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

var (
	addrA = ip.MustParseAddr("10.0.0.1")
	addrB = ip.MustParseAddr("10.0.0.2")
)

// env bundles a kernel and network for tests.
type env struct {
	k *sim.Kernel
	n *Network
}

func newEnv() *env {
	k := sim.New(1)
	return &env{k: k, n: NewNetwork(k, nil, DefaultConfig())}
}

// run spawns fn as the root process and runs the kernel to completion.
func (e *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	e.k.Go("test-root", fn)
	if err := e.k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

// twoHosts registers two unconstrained hosts.
func (e *env) twoHosts(t *testing.T) (*Host, *Host) {
	t.Helper()
	a, err := e.n.AddHost(addrA, netem.PipeConfig{}, netem.PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.n.AddHost(addrB, netem.PipeConfig{}, netem.PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestAddHostDuplicate(t *testing.T) {
	e := newEnv()
	e.twoHosts(t)
	if _, err := e.n.AddHost(addrA, netem.PipeConfig{}, netem.PipeConfig{}); !errors.Is(err, ErrHostExists) {
		t.Fatalf("err = %v, want ErrHostExists", err)
	}
}

func TestDialAcceptRoundTrip(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var got string
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
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
			pk, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = string(pk.Data)
			c.Close(p)
			l.Close()
		})
		p.Yield() // let the server listen first
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(p, []byte("hello")); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Close(p)
	})
	if got != "hello" {
		t.Fatalf("server received %q, want hello", got)
	}
}

func TestDialRefusedNoListener(t *testing.T) {
	e := newEnv()
	a, _ := e.twoHosts(t)
	e.run(t, func(p *sim.Proc) {
		_, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 81})
		if !errors.Is(err, ErrConnRefused) {
			t.Errorf("err = %v, want ErrConnRefused", err)
		}
	})
}

func TestDialUnknownHost(t *testing.T) {
	e := newEnv()
	a, _ := e.twoHosts(t)
	e.run(t, func(p *sim.Proc) {
		_, err := a.Dial(p, ip.Endpoint{Addr: ip.MustParseAddr("10.9.9.9"), Port: 80})
		if !errors.Is(err, ErrNetUnreachable) {
			t.Errorf("err = %v, want ErrNetUnreachable", err)
		}
	})
}

func TestHandshakeLatency(t *testing.T) {
	// 30 ms access latency each side: SYN takes 60 ms, SYNACK 60 ms,
	// so Dial should return just past 120 ms.
	e := newEnv()
	cls := topo.LinkClass{Name: "t", Latency: 30 * time.Millisecond}
	a, err := e.n.AddHostClass(addrA, cls)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.n.AddHostClass(addrB, cls)
	if err != nil {
		t.Fatal(err)
	}
	var dialDone sim.Time
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			if l != nil {
				l.Accept(p)
			}
		})
		p.Yield()
		if _, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80}); err != nil {
			t.Errorf("dial: %v", err)
		}
		dialDone = p.Now()
	})
	lo, hi := sim.Time(120*time.Millisecond), sim.Time(121*time.Millisecond)
	if dialDone < lo || dialDone > hi {
		t.Fatalf("dial completed at %v, want ≈120ms", dialDone)
	}
}

func TestTransferTimeDSL(t *testing.T) {
	// 16000 B + 40 B header through a 128 kb/s up-link is ≈1.0025 s of
	// serialization, plus 2×30 ms latency and a 2 Mb/s down-link pass.
	e := newEnv()
	a, _ := e.n.AddHostClass(addrA, topo.DSL)
	b, _ := e.n.AddHostClass(addrB, topo.DSL)
	var recvAt sim.Time
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			if _, err := c.Recv(p); err == nil {
				recvAt = p.Now()
			}
		})
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		sendStart := p.Now()
		c.Send(p, make([]byte, 16000))
		_ = sendStart
	})
	if recvAt == 0 {
		t.Fatal("message never delivered")
	}
	got := time.Duration(recvAt)
	// Expected: dial ≈128ms, then 1.0025s + 64ms + 60ms ≈ 1.13s more.
	if got < 1100*time.Millisecond || got > 1400*time.Millisecond {
		t.Fatalf("delivery at %v, want ≈1.25s", got)
	}
}

func TestSparseMessage(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	type req struct{ Piece int }
	var got Packet
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			got, _ = c.Recv(p)
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		c.SendMeta(p, 16384, req{Piece: 7})
	})
	if got.Len() != 16384 {
		t.Fatalf("Len = %d, want 16384", got.Len())
	}
	if r, ok := got.Meta.(req); !ok || r.Piece != 7 {
		t.Fatalf("Meta = %#v", got.Meta)
	}
}

func TestMessagesArriveInOrder(t *testing.T) {
	e := newEnv()
	a, _ := e.n.AddHostClass(addrA, topo.DSL)
	b, _ := e.n.AddHostClass(addrB, topo.DSL)
	var got []int
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for {
				pk, err := c.Recv(p)
				if err != nil {
					return
				}
				got = append(got, int(pk.Data[0]))
			}
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		for i := 0; i < 20; i++ {
			c.Send(p, []byte{byte(i)})
		}
		c.Close(p)
	})
	if len(got) != 20 {
		t.Fatalf("received %d messages, want 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestCloseDrainsThenEOF(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var afterDrain error
	var drained bool
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			p.Sleep(time.Second) // let data and FIN arrive first
			if _, err := c.Recv(p); err == nil {
				drained = true
			}
			_, afterDrain = c.Recv(p)
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		c.Send(p, []byte("last"))
		c.Close(p)
	})
	if !drained {
		t.Fatal("buffered data lost on close")
	}
	if !errors.Is(afterDrain, ErrClosed) {
		t.Fatalf("after drain err = %v, want ErrClosed", afterDrain)
	}
}

func TestSendOnClosedConn(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			l.Accept(p)
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		c.Close(p)
		if err := c.Send(p, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
}

func TestListenPortConflict(t *testing.T) {
	e := newEnv()
	_, b := e.twoHosts(t)
	e.run(t, func(p *sim.Proc) {
		if _, err := b.Listen(p, 80); err != nil {
			t.Errorf("first listen: %v", err)
		}
		if _, err := b.Listen(p, 80); !errors.Is(err, ErrPortAlreadyBound) {
			t.Errorf("err = %v, want ErrPortAlreadyBound", err)
		}
	})
}

func TestListenerCloseReleasesPort(t *testing.T) {
	e := newEnv()
	_, b := e.twoHosts(t)
	e.run(t, func(p *sim.Proc) {
		l, err := b.Listen(p, 80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		l.Close()
		if _, err := b.Listen(p, 80); err != nil {
			t.Errorf("relisten after close: %v", err)
		}
	})
}

func TestStreamReadWrite(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var got []byte
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			buf := make([]byte, 3)
			for {
				n, err := c.Read(p, buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		c.Write(p, []byte("hello, "))
		c.Write(p, []byte("world"))
		c.Close(p)
	})
	if string(got) != "hello, world" {
		t.Fatalf("stream read %q", got)
	}
}

func TestDatagramDelivery(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var got Packet
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			pc, err := b.ListenPacket(p, 5000)
			if err != nil {
				t.Errorf("listen-packet: %v", err)
				return
			}
			got, _ = pc.RecvFrom(p)
		})
		p.Yield()
		pc, _ := a.ListenPacket(p, 0)
		pc.SendTo(p, ip.Endpoint{Addr: addrB, Port: 5000}, []byte("dgram"))
	})
	if string(got.Data) != "dgram" {
		t.Fatalf("got %q", got.Data)
	}
	if got.From.Addr != addrA {
		t.Fatalf("From = %v, want %v", got.From.Addr, addrA)
	}
}

func TestDatagramLostOnLossyPipe(t *testing.T) {
	e := newEnv()
	a, err := e.n.AddHost(addrA, netem.PipeConfig{Loss: 1}, netem.PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := e.n.AddHost(addrB, netem.PipeConfig{}, netem.PipeConfig{})
	var ok bool
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			pc, _ := b.ListenPacket(p, 5000)
			_, ok, _ = pc.RecvFromTimeout(p, time.Second)
		})
		p.Yield()
		pc, _ := a.ListenPacket(p, 0)
		pc.SendTo(p, ip.Endpoint{Addr: addrB, Port: 5000}, []byte("x"))
	})
	if ok {
		t.Fatal("datagram should be lost on loss=1 pipe")
	}
}

func TestReliableConnSurvivesLoss(t *testing.T) {
	// 30% loss on the up-link: connection messages retransmit and all
	// arrive.
	e := newEnv()
	a, err := e.n.AddHost(addrA, netem.PipeConfig{Loss: 0.3}, netem.PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := e.n.AddHost(addrB, netem.PipeConfig{}, netem.PipeConfig{})
	var count int
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for {
				if _, err := c.Recv(p); err != nil {
					return
				}
				count++
			}
		})
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial through lossy link: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			c.Send(p, []byte{byte(i)})
		}
		c.Close(p)
	})
	if count != 50 {
		t.Fatalf("received %d/50 messages through lossy reliable conn", count)
	}
	if e.n.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions on a 30% lossy link")
	}
}

func TestConnInOrderUnderJitter(t *testing.T) {
	// Jitter can reorder raw deliveries; the connection's sequence
	// numbers must restore application-visible order.
	e := newEnv()
	a, err := e.n.AddHost(addrA,
		netem.PipeConfig{Delay: 10 * time.Millisecond, Jitter: 20 * time.Millisecond},
		netem.PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := e.n.AddHost(addrB, netem.PipeConfig{}, netem.PipeConfig{})
	var got []int
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for {
				pk, err := c.Recv(p)
				if err != nil {
					return
				}
				got = append(got, int(pk.Data[0]))
			}
		})
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 60; i++ {
			c.Send(p, []byte{byte(i)})
		}
		c.Close(p)
	})
	if len(got) != 60 {
		t.Fatalf("received %d/60", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order under jitter at %d: %v", i, got[:i+1])
		}
	}
}

func TestPingRTTWithTopoFabric(t *testing.T) {
	// Fig 7 check: RTT between the fast-dsl and campus groups should be
	// ≈850 ms (20+400+5 out, 5+400+20 back).
	k := sim.New(1)
	tp := topo.Fig7()
	n := NewNetwork(k, &TopoFabric{Topo: tp}, DefaultConfig())
	src, err := n.AddHostClass(ip.MustParseAddr("10.1.3.207"), topo.FastDSL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHostClass(ip.MustParseAddr("10.2.2.117"), topo.Campus); err != nil {
		t.Fatal(err)
	}
	var rtt time.Duration
	var ok bool
	k.Go("pinger", func(p *sim.Proc) {
		rtt, ok = src.Ping(p, ip.MustParseAddr("10.2.2.117"), DefaultPingSize, 10*time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ping lost")
	}
	if rtt < 850*time.Millisecond || rtt > 860*time.Millisecond {
		t.Fatalf("RTT = %v, want ≈850ms (paper: 853ms)", rtt)
	}
}

// TestTopoFabricRouteNoLatencyAllocs: Route runs once per transmitted
// message, and every sweep cell's one-group topology declares no
// latency pair — that lookup must not allocate.
func TestTopoFabricRouteNoLatencyAllocs(t *testing.T) {
	f := &TopoFabric{Topo: topo.Uniform(64, topo.DSL)}
	src, dst := ip.MustParseAddr("10.0.0.1"), ip.MustParseAddr("10.0.0.2")
	allocs := testing.AllocsPerRun(100, func() {
		if r := f.Route(src, dst, 1500); r.Latency != 0 {
			t.Fatalf("latency %v on a topology that declares none", r.Latency)
		}
	})
	if allocs != 0 {
		t.Fatalf("no-latency route allocates %v times per message, want 0", allocs)
	}
}

func TestPingTimeoutOnDeniedPath(t *testing.T) {
	e := newEnv()
	a, _ := e.twoHosts(t)
	var ok bool
	e.run(t, func(p *sim.Proc) {
		_, ok = a.Ping(p, ip.MustParseAddr("10.9.9.9"), 56, time.Second)
	})
	if ok {
		t.Fatal("ping to unknown host should fail")
	}
}

func TestPingSeries(t *testing.T) {
	e := newEnv()
	a, _ := e.n.AddHostClass(addrA, topo.DSL)
	_, _ = e.n.AddHostClass(addrB, topo.DSL)
	var st PingStats
	e.run(t, func(p *sim.Proc) {
		st = a.PingSeries(p, addrB, 56, 5, 100*time.Millisecond, time.Second)
	})
	if st.Sent != 5 || st.Received != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Min > st.Avg || st.Avg > st.Max {
		t.Fatalf("min/avg/max inconsistent: %+v", st)
	}
	// 4 × 30ms latency plus 2 × 6ms serialization of 96 wire bytes on
	// the 128 kb/s up-links (and a negligible down-link pass).
	if st.Avg < 130*time.Millisecond || st.Avg > 136*time.Millisecond {
		t.Fatalf("avg RTT = %v, want ≈132ms", st.Avg)
	}
}

func TestBindInterceptionSyscallCounts(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	a.SetBindEnv(addrA)
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			l.Accept(p)
		})
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Close(p)
	})
	m := a.Meter()
	if m.Count(SyscallBind) != 1 {
		t.Fatalf("intercepted dial should add 1 bind, got %d", m.Count(SyscallBind))
	}
	if m.Count(SyscallGetenv) != 1 {
		t.Fatalf("intercepted dial should add 1 getenv, got %d", m.Count(SyscallGetenv))
	}
	if m.Count(SyscallConnect) != 1 || m.Count(SyscallSocket) != 1 || m.Count(SyscallClose) != 1 {
		t.Fatalf("unexpected counts: %v", m.Counts)
	}
}

func TestConnectCycleCostMatchesPaper(t *testing.T) {
	// The paper: 10.22 µs per connect/disconnect cycle unmodified,
	// 10.79 µs with the libc interception.
	cycle := func(intercept bool) time.Duration {
		e := newEnv()
		a, b := e.twoHosts(t)
		if intercept {
			a.SetBindEnv(addrA)
		}
		e.run(t, func(p *sim.Proc) {
			p.Go("server", func(p *sim.Proc) {
				l, _ := b.Listen(p, 80)
				for {
					if _, err := l.Accept(p); err != nil {
						return
					}
				}
			})
			p.Yield()
			c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Close(p)
			e.k.Stop()
		})
		return a.Meter().Total
	}
	plain := cycle(false)
	intercepted := cycle(true)
	if plain != 10220*time.Nanosecond {
		t.Fatalf("plain cycle = %v, want 10.22µs", plain)
	}
	if intercepted != 10790*time.Nanosecond {
		t.Fatalf("intercepted cycle = %v, want 10.79µs", intercepted)
	}
}

func TestPopulateTopology(t *testing.T) {
	e := newEnv()
	hosts, err := e.n.PopulateTopology(topo.Fig7())
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2750 {
		t.Fatalf("hosts = %d, want 2750", len(hosts))
	}
	// Spot-check: first fast-dsl host has a 1 Mb/s up-link.
	h := e.n.Host(ip.MustParseAddr("10.1.3.1"))
	if h == nil {
		t.Fatal("10.1.3.1 missing")
	}
	if h.UpPipe().Config().Bandwidth != 1*netem.Mbps {
		t.Fatalf("up bandwidth = %d", h.UpPipe().Config().Bandwidth)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	seen := map[ip.Port]bool{}
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			for {
				if _, err := l.Accept(p); err != nil {
					return
				}
			}
		})
		p.Yield()
		for i := 0; i < 10; i++ {
			c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			if seen[c.LocalAddr().Port] {
				t.Errorf("duplicate ephemeral port %d", c.LocalAddr().Port)
			}
			seen[c.LocalAddr().Port] = true
		}
		e.k.Stop()
	})
}

func TestNetworkTrace(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	log := trace.New(100)
	e.n.SetTrace(log)
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Recv(p)
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		c.Send(p, []byte("traced"))
	})
	if log.Count("net.send") < 3 { // SYN, SYNACK, data
		t.Fatalf("sends traced = %d", log.Count("net.send"))
	}
	if log.Count("net.send") != log.Count("net.deliver") {
		t.Fatalf("send/deliver mismatch: %d vs %d",
			log.Count("net.send"), log.Count("net.deliver"))
	}
}

func TestNetworkStats(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Recv(p)
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		c.Send(p, []byte("x"))
	})
	st := e.n.Stats()
	if st.MessagesSent < 3 { // SYN, SYNACK, data
		t.Fatalf("MessagesSent = %d", st.MessagesSent)
	}
	if st.MessagesDelivered != st.MessagesSent {
		t.Fatalf("delivered %d of %d on a lossless net", st.MessagesDelivered, st.MessagesSent)
	}
}
