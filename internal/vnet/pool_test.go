package vnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// pooled reports whether rs is on n's free list.
func (n *Network) pooled(rs *recvState) bool {
	for x := n.freeRecv; x != nil; x = x.next {
		if x == rs {
			return true
		}
	}
	return false
}

// TestRecvAfterCloseDoesNotPark: an end that gave its receive state
// back at Close answers Recv and RecvTimeout with ErrClosed once the
// call's syscall is charged, instead of parking for good.
func TestRecvAfterCloseDoesNotPark(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
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
		rs := c.rs
		c.Close(p)
		if c.rs != nil || !e.n.pooled(rs) {
			t.Fatalf("Close kept the receive state (end holds %p, pooled %v)", c.rs, e.n.pooled(rs))
		}
		start := p.Now()
		if _, err := c.Recv(p); !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after Close: %v, want ErrClosed", err)
		}
		if _, ok, err := c.RecvTimeout(p, time.Minute); ok || !errors.Is(err, ErrClosed) {
			t.Errorf("RecvTimeout after Close: %v, %v; want ErrClosed", ok, err)
		}
		if got, want := p.Now().Sub(start), 2*syscallCost[sysRecv]; got != want {
			t.Errorf("the two receives took %v, want their syscalls' %v", got, want)
		}
	})
}

// TestLateSegmentsMissTheNextOwner: the dialer closes an end and gives
// its receive state back, a second dial takes the same state, and then
// the first peer sends a message and its FIN to the closed end. Both
// land on a deregistered end and are dropped: the second connection's
// reader gets only its own message and its inbox stays open.
func TestLateSegmentsMissTheNextOwner(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var stale sim.Cond
	e.run(t, func(p *sim.Proc) {
		var served []*Conn
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			for {
				s, err := l.Accept(p)
				if err != nil {
					return
				}
				served = append(served, s)
			}
		})
		p.Yield()
		to := ip.Endpoint{Addr: addrB, Port: 80}
		c1, err := a.Dial(p, to)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rs := c1.rs
		c1.Close(p)
		c2, err := a.Dial(p, to)
		if err != nil {
			t.Errorf("second dial: %v", err)
			return
		}
		if c2.rs != rs {
			t.Fatal("the second dial did not take the state the first end gave back")
		}
		p.Go("stale", func(p *sim.Proc) {
			s1 := served[0]
			if err := s1.SendMeta(p, 1, "stale"); err != nil {
				t.Errorf("stale send: %v", err)
			}
			s1.Close(p)
			stale.Broadcast()
		})
		stale.Wait(p)
		p.Sleep(time.Second) // the stale message and FIN land
		delivered := e.n.Stats().MessagesDelivered
		served[1].SendMeta(p, 1, "fresh")
		got, err := c2.Recv(p)
		if got != "fresh" || err != nil {
			t.Errorf("second end received %v, %v; want fresh", got, err)
		}
		if c2.ended || !c2.rs.inbox.Idle() {
			t.Errorf("the stale FIN reached the second end: ended %v, inbox idle %v", c2.ended, c2.rs.inbox.Idle())
		}
		// SYN, SYN-ACK, FIN, SYN, SYN-ACK, the stale message and FIN.
		if delivered != 7 {
			t.Errorf("%d messages delivered before the fresh one, want 7", delivered)
		}
		e.k.Stop()
	})
}

// TestCloseUnderAParkedReaderKeepsTheState: a conn closed by one task
// while another is parked in its Recv keeps its receive state, so the
// reader is never left waiting on a state a new end has taken; the next
// dial builds a fresh one.
func TestCloseUnderAParkedReaderKeepsTheState(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	readerDone := false
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			l.Serve(p, "idle", func(*sim.Proc, *Conn) {})
		})
		p.Yield()
		to := ip.Endpoint{Addr: addrB, Port: 80}
		c, err := a.Dial(p, to)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		p.Go("reader", func(p *sim.Proc) {
			c.Recv(p)
			readerDone = true
		})
		p.Sleep(time.Second) // the reader parks
		rs := c.rs
		c.Close(p)
		if c.rs != rs || e.n.pooled(rs) {
			t.Fatalf("Close gave the state back under a parked reader (end holds %p, pooled %v)", c.rs, e.n.pooled(rs))
		}
		c2, err := a.Dial(p, to)
		if err != nil {
			t.Errorf("second dial: %v", err)
			return
		}
		if c2.rs == rs {
			t.Fatal("the second dial took the state a reader is parked on")
		}
		e.k.Stop()
	})
	if readerDone {
		t.Error("the reader returned from a Recv on a conn nothing will reach")
	}
}
