package vnet

import (
	"errors"
	"slices"
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

// TestNetworkCarriesARegistry: a network built with no Config.Obs
// gets a private registry with its own families on it, and one built
// with a registry keeps that one.
func TestNetworkCarriesARegistry(t *testing.T) {
	k := sim.New(1)
	reg := NewNetwork(k, nil, Config{}).Obs()
	if reg == nil {
		t.Fatal("a network without Config.Obs has no registry")
	}
	if reg.Snapshot().Find("p2plab_net_messages_sent_total") == nil {
		t.Error("the private registry lacks the network's families")
	}
	if other := NewNetwork(k, nil, Config{}).Obs(); other == reg {
		t.Error("two networks share a private registry")
	}
	if got := NewNetwork(k, nil, Config{Obs: reg}).Obs(); got != reg {
		t.Error("the network replaced the registry its Config named")
	}
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
			meta, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got, _ = meta.(string)
			c.Close(p)
			l.Close()
		})
		p.Yield() // let the server listen first
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.SendMeta(p, len("hello"), "hello"); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Close(p)
	})
	if got != "hello" {
		t.Fatalf("server received %q, want hello", got)
	}
}

// TestDialSelf dials a host's own listener. Both ends of the
// connection live on one host and carry one id, so only a message that
// names the Conn it lands on can tell them apart. Each side sends one
// message and reads the other's; then one side closes, the other sees
// that close, and closes too. Afterwards neither end is registered.
func TestDialSelf(t *testing.T) {
	for _, dialerFirst := range []bool{true, false} {
		name := "acceptor-closes-first"
		if dialerFirst {
			name = "dialer-closes-first"
		}
		t.Run(name, func(t *testing.T) {
			e := newEnv()
			a, _ := e.twoHosts(t)
			var got [2]any   // what the dialer (0) and the acceptor (1) read
			var eof [2]error // each side's Recv after the other closed
			var local, remote [2]ip.Endpoint
			// exchange sends i, reads the other side's message and closes,
			// first or after seeing the other side's close.
			exchange := func(p *sim.Proc, c *Conn, i int, first bool) {
				local[i], remote[i] = c.LocalAddr(), c.RemoteAddr()
				if err := c.SendMeta(p, 10, i); err != nil {
					t.Errorf("side %d: send: %v", i, err)
				}
				meta, err := c.Recv(p)
				if err != nil {
					t.Errorf("side %d: recv: %v", i, err)
				}
				got[i] = meta
				if !first {
					_, eof[i] = c.Recv(p)
				}
				c.Close(p)
			}
			e.run(t, func(p *sim.Proc) {
				p.Go("acceptor", func(p *sim.Proc) {
					l, err := a.Listen(p, 80)
					if err != nil {
						t.Errorf("listen: %v", err)
						return
					}
					c, err := l.Accept(p)
					if err != nil {
						t.Errorf("accept: %v", err)
						return
					}
					exchange(p, c, 1, !dialerFirst)
					l.Close()
				})
				p.Yield()
				c, err := a.Dial(p, ip.Endpoint{Addr: addrA, Port: 80})
				if err != nil {
					t.Errorf("dial self: %v", err)
					e.k.Stop()
					return
				}
				exchange(p, c, 0, dialerFirst)
			})
			for i, meta := range got {
				if meta != 1-i || remote[i] != local[1-i] {
					t.Errorf("side %d read %v from %v, want %d from %v", i, meta, remote[i], 1-i, local[1-i])
				}
			}
			second := 1
			if !dialerFirst {
				second = 0
			}
			if !errors.Is(eof[second], ErrClosed) {
				t.Errorf("side %d after the other's close: err = %v, want ErrClosed", second, eof[second])
			}
			if n := e.n; n.connsEstablished != 0 || n.connsHalfOpen != 0 {
				t.Errorf("conn gauges read %d established, %d half-open after both closes, want 0 and 0", n.connsEstablished, n.connsHalfOpen)
			}
		})
	}
}

// TestCloseWindowDelivers pins what keeps a closing Conn registered: a
// message that lands while Close is still charging its syscall is
// delivered, because delivery follows registration, which Close ends
// only after the charge, and not the closed flag, which it sets first.
func TestCloseWindowDelivers(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var got any
	var err error
	e.run(t, func(p *sim.Proc) {
		var server *Conn
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			server, _ = l.Accept(p)
		})
		p.Yield()
		c, derr := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		p.Sleep(time.Millisecond) // the server's Accept returns
		if derr != nil || server == nil {
			t.Errorf("dial: %v, accepted %v", derr, server != nil)
			e.k.Stop()
			return
		}
		// The send's charge is shorter than the close's, and the hosts'
		// links add no time, so the message lands inside Close.
		p.Go("sender", func(p *sim.Proc) { server.SendMeta(p, 1, "late") })
		c.Close(p)
		got, _, err = c.RecvTimeout(p, time.Second)
	})
	if err != nil || got != "late" {
		t.Fatalf("Recv after Close = %v, %v; want the message sent during Close", got, err)
	}
}

// TestFinOnClosedConnUnobserved: the dialer closes, and the acceptor,
// seeing that close, closes too, so its FIN lands on a conn its owner
// has already closed and deregistered. Nothing the owner can observe
// changes: its inbox stays open and its sink is not called.
func TestFinOnClosedConnUnobserved(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var c *Conn
	sinkCalls := 0
	peerSawClose := false
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			s, err := l.Accept(p)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			_, err = s.Recv(p)
			peerSawClose = errors.Is(err, ErrClosed)
			s.Close(p)
		})
		p.Yield()
		var err error
		if c, err = a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80}); err != nil {
			t.Errorf("dial: %v", err)
			e.k.Stop()
			return
		}
		c.SetSink(func(any, bool) { sinkCalls++ })
		c.Close(p)
	})
	if !peerSawClose {
		t.Fatal("the acceptor did not see the dialer's close")
	}
	// SYN, SYN-ACK and both FINs.
	if st := e.n.Stats(); st.MessagesSent != 4 || st.MessagesDelivered != 4 {
		t.Fatalf("%d messages sent, %d delivered; want both FINs among 4 delivered", st.MessagesSent, st.MessagesDelivered)
	}
	if c.registered {
		t.Fatal("the closed conn is still registered")
	}
	if sinkCalls != 0 || c.inbox.Closed() {
		t.Errorf("the FIN reached the closed conn: %d sink call(s), inbox closed %v", sinkCalls, c.inbox.Closed())
	}
}

// sinkLog is what a sink heard: the messages in order and the ends.
type sinkLog struct {
	got  []any
	ends int
}

func (s *sinkLog) sink(meta any, closed bool) {
	if closed {
		s.ends++
		return
	}
	s.got = append(s.got, meta)
}

// TestSinkHearsTheEndOnce pins push delivery's promises: what the
// inbox buffered before SetSink reaches the sink first and in order,
// and a sink hears the end of the receive side exactly once, whether
// the end came before SetSink, twice (a FIN, then a give-up reset), or
// as the RST of a listener that closed with the conn in its backlog.
func TestSinkHearsTheEndOnce(t *testing.T) {
	// exchange dials b:80 from a, sends sent messages and, if fin,
	// closes; after a second it hands the acceptor's conn to then.
	exchange := func(t *testing.T, sent int, fin bool, then func(p *sim.Proc, e *env, s *Conn)) {
		e := newEnv()
		a, b := e.twoHosts(t)
		e.run(t, func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			p.Go("client", func(p *sim.Proc) {
				c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				for i := 0; i < sent; i++ {
					c.SendMeta(p, 10, i)
				}
				if fin {
					c.Close(p)
				}
			})
			s, err := l.Accept(p)
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			p.Sleep(time.Second)
			then(p, e, s)
		})
	}
	t.Run("buffered", func(t *testing.T) {
		var log sinkLog
		exchange(t, 3, false, func(p *sim.Proc, e *env, s *Conn) {
			s.SetSink(log.sink)
			if s.sink == nil {
				t.Error("an open conn did not keep its sink")
			}
		})
		if !slices.Equal(log.got, []any{0, 1, 2}) || log.ends != 0 {
			t.Errorf("sink heard %v and %d end(s); want [0 1 2] and none", log.got, log.ends)
		}
	})
	t.Run("ended-before-sink", func(t *testing.T) {
		var log sinkLog
		exchange(t, 2, true, func(p *sim.Proc, e *env, s *Conn) {
			s.SetSink(log.sink)
			if s.sink != nil {
				t.Error("an ended conn kept its sink")
			}
		})
		if !slices.Equal(log.got, []any{0, 1}) || log.ends != 1 {
			t.Errorf("sink heard %v and %d end(s); want [0 1] and one", log.got, log.ends)
		}
	})
	t.Run("fin-then-reset", func(t *testing.T) {
		var log sinkLog
		exchange(t, 0, false, func(p *sim.Proc, e *env, s *Conn) {
			s.SetSink(log.sink)
			s.peer.Close(p)
			p.Sleep(time.Second)
			if log.ends != 1 {
				t.Fatalf("the FIN gave %d end(s), want one", log.ends)
			}
			// A send into a downed link runs out of retransmissions
			// and resets s: a second end, which the sink must not hear.
			e.n.SetLinkUp(s.h, false)
			if err := s.SendMeta(p, 10, "doomed"); err != nil {
				t.Fatalf("send: %v", err)
			}
			p.Sleep(2 * time.Minute)
			if s.registered || !s.closed {
				t.Fatal("the exhausted send did not reset the conn")
			}
		})
		if log.ends != 1 {
			t.Errorf("sink heard %d ends, want one", log.ends)
		}
	})
	t.Run("backlog-rst", func(t *testing.T) {
		e := newEnv()
		a, b := e.twoHosts(t)
		var log sinkLog
		e.run(t, func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			c.SetSink(log.sink)
			l.Close() // the acceptor's side is still in the backlog
			p.Sleep(time.Second)
			if c.registered || !c.closed {
				t.Error("the RST did not tear the dialer's conn down")
			}
			c.Close(p)
		})
		if len(log.got) != 0 || log.ends != 1 {
			t.Errorf("sink heard %v and %d end(s); want nothing and one", log.got, log.ends)
		}
	})
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
		c.SendMeta(p, 16000, nil)
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
	var got any
	var dialed, charged uint64 // bytes delivered when the dial returned, and by the read
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			got, _ = c.Recv(p)
			charged = e.n.stats.BytesDelivered - dialed
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		dialed = e.n.stats.BytesDelivered
		c.SendMeta(p, 16384, req{Piece: 7})
	})
	// The message is the only delivery between the dial and the read.
	if charged != 16384+HeaderBytes {
		t.Fatalf("the message was charged %d B, want 16384 + %d", charged, HeaderBytes)
	}
	if r, ok := got.(req); !ok || r.Piece != 7 {
		t.Fatalf("Meta = %#v", got)
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
				meta, err := c.Recv(p)
				if err != nil {
					return
				}
				got = append(got, meta.(int))
			}
		})
		p.Yield()
		c, _ := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		for i := 0; i < 20; i++ {
			c.SendMeta(p, 1, i)
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
		c.SendMeta(p, len("last"), "last")
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
		if err := c.SendMeta(p, len("x"), "x"); !errors.Is(err, ErrClosed) {
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

func TestReliableConnSurvivesLoss(t *testing.T) {
	// 30% loss on the up-link: connection messages retransmit and all
	// arrive, in send order. A lost message's retransmit lands after its
	// successors, so the raw deliveries are out of order and the
	// connection's sequence numbers must restore the order.
	e := newEnv()
	a, err := e.n.AddHost(addrA, netem.PipeConfig{Loss: 0.3}, netem.PipeConfig{})
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
				meta, err := c.Recv(p)
				if err != nil {
					return
				}
				got = append(got, meta.(int))
			}
		})
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial through lossy link: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			c.SendMeta(p, 1, i)
		}
		c.Close(p)
	})
	if len(got) != 50 {
		t.Fatalf("received %d/50 messages through lossy reliable conn", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order under loss at %d: %v", i, got[:i+1])
		}
	}
	if e.n.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions on a 30% lossy link")
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
// message, so its latency lookup must not allocate: not on a sweep
// cell's one-group topology, which declares no latency pair, and not
// between two groups that declare one.
func TestTopoFabricRouteNoLatencyAllocs(t *testing.T) {
	pair := topo.New()
	pair.MustAddGroup(topo.Group{Name: "a", Prefix: ip.MustParsePrefix("10.0.0.0/24"), Class: topo.DSL, Nodes: 1})
	pair.MustAddGroup(topo.Group{Name: "b", Prefix: ip.MustParsePrefix("10.0.1.0/24"), Class: topo.DSL, Nodes: 1})
	pair.MustSetLatency("a", "b", 80*time.Millisecond)
	for _, c := range []struct {
		name string
		tp   *topo.Topology
		dst  string
		want time.Duration
	}{
		{"one group", topo.Uniform(64, topo.DSL), "10.0.0.2", 0},
		{"declared pair", pair, "10.0.1.1", 80 * time.Millisecond},
	} {
		f := &TopoFabric{Topo: c.tp}
		src, dst := ip.MustParseAddr("10.0.0.1"), ip.MustParseAddr(c.dst)
		allocs := testing.AllocsPerRun(100, func() {
			if _, r := f.Route(src, dst, nil); r.Latency != c.want {
				t.Fatalf("%s: latency %v, want %v", c.name, r.Latency, c.want)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: route allocates %v times per message, want 0", c.name, allocs)
		}
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
	var got time.Duration
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			l.Accept(p)
		})
		p.Yield()
		start := p.Now()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Close(p)
		got = p.Now().Sub(start)
	})
	// One socket, getenv, bind, connect and close each: the intercepted
	// dial adds exactly one getenv and one bind. The links are
	// unconstrained, so the dialer's clock advances by the calls' costs
	// alone.
	var want time.Duration
	for _, s := range []sysno{sysSocket, sysGetenv, sysBind, sysConnect, sysClose} {
		want += syscallCost[s]
	}
	if got != want {
		t.Fatalf("intercepted dial charged %v, want %v", got, want)
	}
}

func TestConnectCycleCostMatchesPaper(t *testing.T) {
	// The paper: 10.22 µs per connect/disconnect cycle unmodified,
	// 10.79 µs with the libc interception.
	cycle := func(intercept bool) (elapsed time.Duration) {
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
			start := p.Now()
			c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Close(p)
			elapsed = p.Now().Sub(start)
			e.k.Stop()
		})
		return elapsed
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
		c.SendMeta(p, len("traced"), "traced")
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
		c.SendMeta(p, len("x"), "x")
	})
	st := e.n.Stats()
	if st.MessagesSent < 3 { // SYN, SYNACK, data
		t.Fatalf("MessagesSent = %d", st.MessagesSent)
	}
	if st.MessagesDelivered != st.MessagesSent {
		t.Fatalf("delivered %d of %d on a lossless net", st.MessagesDelivered, st.MessagesSent)
	}
}
