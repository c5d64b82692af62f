package vnet

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// serveB starts a listener on b's port 80 whose connections each run
// handle, in a task named "conn", and then runs client as the root
// task. The run must end with only the accept loop parked.
func serveB(t *testing.T, e *env, b *Host, handle func(p *sim.Proc, c *Conn), client func(p *sim.Proc)) {
	t.Helper()
	e.k.Go("server", func(p *sim.Proc) {
		l, err := b.Listen(p, 80)
		if err != nil {
			t.Error(err)
			return
		}
		l.Serve(p, "conn", handle)
	})
	e.k.Go("client", func(p *sim.Proc) {
		p.Yield()
		client(p)
	})
	var dl *sim.DeadlockError
	if err := e.k.Run(); !errors.As(err, &dl) || !slices.Equal(dl.Blocked, []string{"server"}) {
		t.Fatalf("run: %v, want only the accept loop parked", err)
	}
}

// echo answers a request with itself, charged 10 bytes.
func echo(_ *sim.Proc, _ ip.Endpoint, req any) (int, any) { return 10, req }

// gauges reads the network's registered ends, established and
// half-open.
func gauges(n *Network) [2]int { return [2]int{n.connsEstablished, n.connsHalfOpen} }

// TestCallReadsTheReplyBeforeClose: the server answers with the request
// and the sender's address; Call hands the reply to its callback, and
// then charges the Close, so the callback runs one close charge before
// Call returns. Both ends are gone at the end.
func TestCallReadsTheReplyBeforeClose(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var from ip.Endpoint
	var got any
	var at sim.Time
	serveB(t, e, b, func(p *sim.Proc, c *Conn) {
		if !c.Answer(p, time.Second, func(p *sim.Proc, f ip.Endpoint, req any) (int, any) {
			from = f
			return echo(p, f, req)
		}) {
			t.Error("Answer reported a failure on a served request")
		}
		c.Close(p)
	}, func(p *sim.Proc) {
		err := a.Call(p, ip.Endpoint{Addr: b.Addr(), Port: 80}, 10, "ping", time.Second, func(meta any) {
			got, at = meta, p.Now()
		})
		if err != nil {
			t.Error(err)
			return
		}
		if d := p.Now().Sub(at); got == nil || d != syscallCost[sysClose] {
			t.Errorf("the reply was read %v before Call returned, want the close charge %v", d, syscallCost[sysClose])
		}
	})
	if got != "ping" {
		t.Errorf("reply %v, want the request echoed", got)
	}
	if from.Addr != a.Addr() {
		t.Errorf("the server saw the request from %v, want %v", from, a.Addr())
	}
	if g := gauges(e.n); g != [2]int{} {
		t.Errorf("ends left registered (established, half-open): %v", g)
	}
}

// TestCallTimesOut: a server that never answers makes Call return
// ErrTimeout once wait passes, with the client's end closed: only the
// server's end is still registered.
func TestCallTimesOut(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	serveB(t, e, b, func(p *sim.Proc, c *Conn) {
		p.Sleep(time.Hour)
		c.Close(p)
	}, func(p *sim.Proc) {
		start := p.Now()
		err := a.Call(p, ip.Endpoint{Addr: b.Addr(), Port: 80}, 10, "ping", time.Second, func(meta any) {
			t.Errorf("reply %v from a server that never answers", meta)
		})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if d := p.Now().Sub(start); d < time.Second || d > 2*time.Second {
			t.Errorf("Call returned after %v, want just past its 1 s wait", d)
		}
		if g := gauges(e.n); g != [2]int{1, 0} {
			t.Errorf("ends registered after the timeout (established, half-open): %v, want only the server's", g)
		}
	})
}

// TestCallRefused: a dial to a port nobody listens on returns its
// error, and Call sends nothing beyond what the dial itself did.
func TestCallRefused(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	to := ip.Endpoint{Addr: b.Addr(), Port: 81}
	e.run(t, func(p *sim.Proc) {
		before := e.n.Stats().MessagesSent
		if _, err := a.Dial(p, to); !errors.Is(err, ErrConnRefused) {
			t.Errorf("dial: %v, want ErrConnRefused", err)
			return
		}
		dial := e.n.Stats().MessagesSent - before
		before = e.n.Stats().MessagesSent
		err := a.Call(p, to, 10, "ping", time.Second, func(meta any) {
			t.Errorf("reply %v on a refused dial", meta)
		})
		if !errors.Is(err, ErrConnRefused) {
			t.Errorf("err = %v, want ErrConnRefused", err)
		}
		if sent := e.n.Stats().MessagesSent - before; sent != dial {
			t.Errorf("Call sent %d messages, a refused dial alone sends %d", sent, dial)
		}
	})
}

// TestCallWithoutWaitDoesNotRead: with wait 0, Call sends and closes at
// once; the server still gets the request, and its reply reaches no
// callback.
func TestCallWithoutWaitDoesNotRead(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var req any
	serveB(t, e, b, func(p *sim.Proc, c *Conn) {
		c.Answer(p, time.Second, func(p *sim.Proc, f ip.Endpoint, r any) (int, any) {
			req = r
			return echo(p, f, r)
		})
		c.Close(p)
	}, func(p *sim.Proc) {
		start := p.Now()
		err := a.Call(p, ip.Endpoint{Addr: b.Addr(), Port: 80}, 10, "push", 0, func(meta any) {
			t.Errorf("reply %v read with wait 0", meta)
		})
		if err != nil {
			t.Error(err)
			return
		}
		// A dial to an unconstrained host takes no time on the wire:
		// Call costs its syscalls alone.
		want := syscallCost[sysSocket] + syscallCost[sysConnect] + syscallCost[sysSend] + syscallCost[sysClose]
		if d := p.Now().Sub(start); d != want {
			t.Errorf("Call took %v, want its four syscalls' %v", d, want)
		}
	})
	if req != "push" {
		t.Errorf("the server got %v, want the push", req)
	}
}

// TestAnswerSendsNoNilReply: a nil reply sends nothing, and Answer
// reports the connection still good; the client reads only the end.
func TestAnswerSendsNoNilReply(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	answered, ok := 0, false
	serveB(t, e, b, func(p *sim.Proc, c *Conn) {
		ok = c.Answer(p, time.Second, func(*sim.Proc, ip.Endpoint, any) (int, any) {
			answered++
			return 0, nil
		})
		c.Close(p)
	}, func(p *sim.Proc) {
		c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.SendMeta(p, 10, "push"); err != nil {
			t.Error(err)
			return
		}
		if meta, err := c.Recv(p); !errors.Is(err, ErrClosed) {
			t.Errorf("the client read %v, %v; want only the server's close", meta, err)
		}
		c.Close(p)
	})
	if answered != 1 || !ok {
		t.Errorf("answered %d times, Answer reported %v; want 1 and true", answered, ok)
	}
}

// TestAnswerFails: Answer reports false, and calls no answer, when its
// read times out or finds the client's FIN; and reports false when the
// reply cannot be sent because the server's end was reset.
func TestAnswerFails(t *testing.T) {
	never := func(t *testing.T) func(*sim.Proc, ip.Endpoint, any) (int, any) {
		return func(_ *sim.Proc, _ ip.Endpoint, req any) (int, any) {
			t.Errorf("answer called with %v", req)
			return 0, nil
		}
	}
	for _, tc := range []struct {
		name string
		// client runs on the dialed end; server runs on the accepted one
		// and returns what its Answer reported.
		client func(p *sim.Proc, c *Conn)
		server func(t *testing.T, p *sim.Proc, c *Conn, b *Host) bool
	}{
		{
			name:   "timeout",
			client: func(p *sim.Proc, c *Conn) { p.Sleep(time.Hour) },
			server: func(t *testing.T, p *sim.Proc, c *Conn, _ *Host) bool {
				start := p.Now()
				ok := c.Answer(p, time.Second, never(t))
				if d := p.Now().Sub(start); d < time.Second || d > 2*time.Second {
					t.Errorf("Answer returned after %v, want just past its 1 s wait", d)
				}
				return ok
			},
		},
		{
			name:   "fin",
			client: func(p *sim.Proc, c *Conn) {},
			server: func(t *testing.T, p *sim.Proc, c *Conn, _ *Host) bool {
				return c.Answer(p, 0, never(t))
			},
		},
		{
			name: "reset",
			client: func(p *sim.Proc, c *Conn) {
				c.SendMeta(p, 10, "ping")
				p.Sleep(time.Hour)
			},
			server: func(t *testing.T, p *sim.Proc, c *Conn, b *Host) bool {
				// With the server's link down, a message of its own
				// runs out of retransmissions and resets its end; the
				// request it already holds is still read.
				p.Sleep(time.Millisecond)
				b.Network().SetLinkUp(b, false)
				c.SendMeta(p, 10, "lost")
				p.Sleep(10 * time.Minute)
				b.Network().SetLinkUp(b, true)
				answered := false
				ok := c.Answer(p, 0, func(p *sim.Proc, f ip.Endpoint, req any) (int, any) {
					answered = true
					return echo(p, f, req)
				})
				if !answered {
					t.Error("the buffered request was not answered")
				}
				return ok
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			a, b := e.twoHosts(t)
			ok := true
			serveB(t, e, b, func(p *sim.Proc, c *Conn) {
				ok = tc.server(t, p, c, b)
				c.Close(p)
			}, func(p *sim.Proc) {
				c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
				if err != nil {
					t.Error(err)
					return
				}
				tc.client(p, c)
				c.Close(p)
			})
			if ok {
				t.Error("Answer reported true")
			}
		})
	}
}

// TestAnswerLoopEndsAtFin: a server that answers until the client hangs
// up, as the web seed does, answers every request in order and ends at
// the client's FIN.
func TestAnswerLoopEndsAtFin(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	answered, ended := 0, false
	serveB(t, e, b, func(p *sim.Proc, c *Conn) {
		for c.Answer(p, 0, func(p *sim.Proc, f ip.Endpoint, req any) (int, any) {
			answered++
			return echo(p, f, req)
		}) {
		}
		ended = true
		c.Close(p)
	}, func(p *sim.Proc) {
		c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
		if err != nil {
			t.Error(err)
			return
		}
		for i := range 3 {
			if err := c.SendMeta(p, 10, i); err != nil {
				t.Error(err)
				return
			}
			if meta, err := c.Recv(p); err != nil || meta != i {
				t.Errorf("reply %d: %v, %v", i, meta, err)
			}
		}
		c.Close(p)
	})
	if answered != 3 || !ended {
		t.Errorf("answered %d requests, loop ended %v; want 3 and true", answered, ended)
	}
}
