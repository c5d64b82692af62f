package vnet

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Script operations of FuzzConnLifecycle. Each is one byte (mod
// lcOps) followed by its argument bytes; a missing argument reads 0.
const (
	lcListen      = iota // host: listen on port 80
	lcCloseListen        // host: close that listener
	lcDial               // src, dst host (dst may be src): dial port 80
	lcAccept             // host: accept one connection
	lcSend               // conn: send the conn's next sequence number
	lcClose              // conn: close it
	lcPartition          // host, host: partition the two
	lcHeal               // heal the oldest partition
	lcLink               // host: take its interface down or up
	lcSleep              // n: let (n%64+1)·500 ms pass
	lcSink               // conn: switch it to push delivery
	lcOps
)

// lcArgs is the argument count of each operation.
var lcArgs = [lcOps]int{1, 1, 2, 1, 1, 1, 2, 0, 1, 1, 1}

// lcConn is a connection the script holds (Dial or Accept returned
// it): what it sent, what its reader or sink received, whether the
// script closed it, and whether it has a sink and the ends that sink
// heard.
type lcConn struct {
	c      *Conn
	sent   []int
	got    []int
	closed bool
	sunk   bool
	ends   int
}

// FuzzConnLifecycle drives scripts of dial (self included), accept,
// send, close, listener close, partition/heal, link down/up and a switch
// to push delivery over three hosts. After every step the two connection
// gauges must equal the connections registered at that instant — dials
// in progress are half-open; the held connections still registered and
// the listeners' unaccepted backlogs are established —, the network
// must conserve messages: sent = delivered + dropped + in flight, and
// each receive state on the network's free list must be open, empty,
// waited on by no task, and held by no Conn the script can reach. At
// the end, with every path restored and retransmission given time to
// finish, each message sent on a connection still open at both ends has
// arrived, in order, and every other connection has received a prefix
// of what its peer sent. A switched connection's sink takes over from
// its reader, which gets nothing more and then ErrClosed; a sink must
// hear at most one end, and exactly one once the receive side has
// ended. The seeds cover a dial to self, a late SYN-ACK reaching a dial
// that timed out, a listener closed with a backlog, a sender reset when
// its retransmissions run out, a switch while messages wait in the
// reorder buffer and the FIN is in flight, an end closed under its
// parked reader, and a refused backlog end holding a message.
func FuzzConnLifecycle(f *testing.F) {
	f.Add([]byte{})
	// Dial, accept, a message each way, close both ends.
	f.Add([]byte{lcListen, 0, lcDial, 1, 0, lcAccept, 0, lcSend, 0, lcSend, 1, lcSend, 0, lcClose, 0, lcSleep, 0, lcClose, 1})
	// A host dials itself, and both ends send while the pair stays
	// open: every message must arrive, in order.
	f.Add([]byte{lcListen, 2, lcAccept, 2, lcDial, 2, 2, lcSend, 0, lcSend, 1, lcSend, 1, lcSleep, 0, lcSend, 0})
	// The SYN waits out a partition past the handshake timeout: the dial
	// fails, and the SYN-ACK that follows the heal finds it gone. The
	// orphaned acceptor side is then accepted and sends into nothing.
	f.Add([]byte{lcListen, 1, lcPartition, 0, 1, lcDial, 0, 1, lcSleep, 53, lcHeal, lcSleep, 63, lcAccept, 1, lcSend, 0, lcSleep, 3, lcClose, 0})
	// Two queued dials and a self-dial are refused when the listener
	// closes; a dial with no listener is refused outright.
	f.Add([]byte{lcListen, 2, lcDial, 0, 2, lcDial, 1, 2, lcDial, 2, 2, lcSleep, 1, lcCloseListen, 2, lcSleep, 1, lcDial, 0, 2})
	// A link goes down under an established pair: the dialer's message
	// exhausts its retransmissions and resets it, and the acceptor is
	// left holding a half of a connection.
	f.Add([]byte{lcListen, 1, lcDial, 0, 1, lcAccept, 1, lcLink, 1, lcSend, 0, lcSleep, 63, lcSleep, 63, lcLink, 1, lcSend, 1, lcSleep, 2})
	// A dial into a downed link times out while another connection
	// rides out a short partition.
	f.Add([]byte{lcListen, 0, lcListen, 1, lcDial, 2, 0, lcAccept, 0, lcLink, 1, lcDial, 2, 1, lcPartition, 2, 0, lcSend, 0, lcSend, 1, lcSleep, 4, lcHeal, lcSleep, 63, lcSend, 0, lcLink, 1})
	// The dialer's first message is lost to its downed link, its second
	// waits in the acceptor's reorder buffer, and its FIN is lost too:
	// the acceptor switches to push delivery before the retransmissions
	// land, so its sink gets both messages and then the end.
	f.Add([]byte{lcListen, 1, lcDial, 0, 1, lcAccept, 1, lcLink, 0, lcSend, 0, lcLink, 0, lcSend, 0, lcLink, 0, lcClose, 0, lcLink, 0, lcSink, 1, lcSleep, 2})
	// An end is closed while its reader is parked in Recv, so it keeps
	// its receive state; a second pair is dialed and both of its ends
	// send, and its readers must get every message.
	f.Add([]byte{lcListen, 0, lcDial, 1, 0, lcAccept, 0, lcClose, 0, lcDial, 1, 0, lcAccept, 0, lcSend, 2, lcSend, 3, lcSleep, 0})
	// A listener closes with a dialed end in its backlog that a message
	// has reached: the refused end keeps its receive state.
	f.Add([]byte{lcListen, 2, lcDial, 0, 2, lcSend, 0, lcCloseListen, 2, lcDial, 1, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		runLifecycle(t, script)
	})
}

func runLifecycle(t *testing.T, script []byte) {
	k := sim.New(1)
	n := NewNetwork(k, nil, DefaultConfig())
	reg := n.Obs()
	link := netem.PipeConfig{Bandwidth: 8 << 20, Delay: 3 * time.Millisecond}
	var hosts [3]*Host
	for i := range hosts {
		h, err := n.AddHost(ip.MustParseAddr("10.0.0.1")+ip.Addr(i), link, link)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}
	var listeners [3]*Listener
	var held []*lcConn
	var parts []int
	dialing := 0
	checkOrder := false // the run reached its end with the gauges right

	hold := func(c *Conn) {
		lc := &lcConn{c: c}
		held = append(held, lc)
		k.Go("reader", func(p *sim.Proc) {
			for {
				meta, err := c.Recv(p)
				if err != nil {
					return
				}
				if lc.sunk {
					t.Errorf("%v -> %v: the reader got %v after the switch", c.RemoteAddr(), c.LocalAddr(), meta)
				}
				lc.got = append(lc.got, meta.(int))
			}
		})
	}
	// backlog returns a listener's queued connections, putting them
	// back in order; nothing waits to send on a backlog, and an Accept
	// woken for one still finds it.
	backlog := func(l *Listener) []*Conn {
		var q []*Conn
		for {
			c, ok := l.backlog.TryRecv()
			if !ok {
				break
			}
			q = append(q, c)
		}
		for _, c := range q {
			l.backlog.TrySend(c)
		}
		return q
	}
	// pool reports the first receive state on the free list that a new
	// end must not take: one a task may still park on or read from, or
	// one a Conn the script can reach (a held or queued end, or its
	// peer) still holds.
	pool := func(queued []*Conn) error {
		inUse := map[*recvState]bool{}
		for _, c := range queued {
			inUse[c.rs] = true
			inUse[c.peer.rs] = true
		}
		for _, lc := range held {
			inUse[lc.c.rs] = true
			inUse[lc.c.peer.rs] = true
		}
		seen := map[*recvState]bool{}
		for rs := n.freeRecv; rs != nil; rs = rs.next {
			switch {
			case seen[rs]:
				return errors.New("the free list loops")
			case !rs.idle():
				return errors.New("a pooled state is closed, holds a message, or has a reader or a dialer")
			case inUse[rs]:
				return errors.New("a pooled state is still held by a Conn")
			}
			seen[rs] = true
		}
		return nil
	}
	// check reports whether the gauges, the conservation law and the
	// receive-state pool hold.
	check := func(step int) bool {
		t.Helper()
		wantEst := 0
		for _, lc := range held {
			if lc.c.registered {
				wantEst++
			}
		}
		var queued []*Conn
		for _, l := range listeners {
			if l != nil {
				queued = append(queued, backlog(l)...)
			}
		}
		wantEst += len(queued)
		if err := pool(queued); err != nil {
			t.Errorf("step %d at %v: %v", step, k.Now(), err)
			return false
		}
		snap := reg.Snapshot()
		est, half := snap.Total("p2plab_net_conns_established"), snap.Total("p2plab_net_conns_half_open")
		if est != float64(wantEst) || half != float64(dialing) {
			t.Errorf("step %d at %v: gauges read %g established, %g half-open; want %d and %d",
				step, k.Now(), est, half, wantEst, dialing)
			return false
		}
		sent := snap.Total("p2plab_net_messages_sent_total")
		accounted := snap.Total("p2plab_net_messages_delivered_total") + snap.Total("p2plab_net_messages_dropped_total") +
			snap.Total("p2plab_net_messages_in_flight")
		if sent != accounted {
			t.Errorf("step %d at %v: %g sent, %g delivered, dropped or in flight", step, k.Now(), sent, accounted)
			return false
		}
		return true
	}
	pick := func(b byte) *lcConn {
		if len(held) == 0 {
			return nil
		}
		return held[int(b)%len(held)]
	}

	k.Go("script", func(p *sim.Proc) {
		step := 0
		for i := 0; i < len(script); step++ {
			op := int(script[i]) % lcOps
			var arg [2]byte
			copy(arg[:lcArgs[op]], script[min(i+1, len(script)):])
			i += 1 + lcArgs[op]
			h := hosts[arg[0]%3]
			switch op {
			case lcListen:
				if l := listeners[arg[0]%3]; l == nil {
					l, err := h.Listen(p, 80)
					if err != nil {
						t.Errorf("step %d: listen: %v", step, err)
						k.Stop()
						return
					}
					listeners[arg[0]%3] = l
				}
			case lcCloseListen:
				if l := listeners[arg[0]%3]; l != nil {
					l.Close()
					listeners[arg[0]%3] = nil
				}
			case lcDial:
				dst := ip.Endpoint{Addr: hosts[arg[1]%3].Addr(), Port: 80}
				dialing++
				p.Go("dial", func(p *sim.Proc) {
					c, err := h.Dial(p, dst)
					dialing--
					if err == nil {
						hold(c)
					}
				})
			case lcAccept:
				if l := listeners[arg[0]%3]; l != nil {
					p.Go("accept", func(p *sim.Proc) {
						if c, err := l.Accept(p); err == nil {
							hold(c)
						}
					})
				}
			case lcSend:
				if lc := pick(arg[0]); lc != nil {
					if lc.c.SendMeta(p, 100, len(lc.sent)) == nil {
						lc.sent = append(lc.sent, len(lc.sent))
					}
				}
			case lcClose:
				if lc := pick(arg[0]); lc != nil {
					lc.c.Close(p)
					lc.closed = true
				}
			case lcPartition:
				parts = append(parts, n.Partition([]ip.Addr{h.Addr()}, []ip.Addr{hosts[arg[1]%3].Addr()}))
			case lcHeal:
				if len(parts) > 0 {
					n.Heal(parts[0])
					parts = parts[1:]
				}
			case lcLink:
				n.SetLinkUp(h, !h.LinkUp())
			case lcSleep:
				p.Sleep(time.Duration(arg[0]%64+1) * 500 * time.Millisecond)
			case lcSink:
				if lc := pick(arg[0]); lc != nil && !lc.sunk {
					lc.sunk = true
					lc.c.SetSink(func(meta any, closed bool) {
						if closed {
							lc.ends++
							return
						}
						lc.got = append(lc.got, meta.(int))
					})
				}
			}
			p.Sleep(20 * time.Millisecond)
			if !check(step) {
				k.Stop()
				return
			}
		}
		// Restore every path and let every retransmission and handshake
		// run out.
		for _, id := range parts {
			n.Heal(id)
		}
		for _, h := range hosts {
			n.SetLinkUp(h, true)
		}
		p.Sleep(2 * time.Minute)
		if check(step) {
			checkOrder = true
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	for _, lc := range held {
		if lc.sunk && (lc.ends > 1 || lc.c.ended != (lc.ends == 1)) {
			t.Errorf("%v -> %v: the sink heard %d end(s), receive side ended %v",
				lc.c.RemoteAddr(), lc.c.LocalAddr(), lc.ends, lc.c.ended)
		}
	}
	if !checkOrder {
		return
	}
	for _, d := range held {
		for _, a := range held {
			if d == a || d.c.LocalAddr() != a.c.RemoteAddr() || a.c.LocalAddr() != d.c.RemoteAddr() {
				continue
			}
			want := d.sent
			if d.closed || a.closed || !d.c.registered || !a.c.registered {
				// A pair that ended may have lost its tail, never a
				// message in the middle.
				want = want[:min(len(a.got), len(want))]
			}
			if !slices.Equal(a.got, want) {
				t.Errorf("%v -> %v: sent %v, received %v", d.c.LocalAddr(), a.c.LocalAddr(), d.sent, a.got)
			}
		}
	}
}
