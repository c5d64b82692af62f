package vnet

import (
	"math"

	"repro/internal/ip"
	"repro/internal/sim"
)

// Conn is a TCP-like reliable, ordered, message-boundary-preserving
// connection between two virtual nodes. Reliability is modelled (lossy
// pipes trigger retransmission with backoff); ordering follows from the
// FIFO pipe model. A reader receives the value its sender passed to
// SendMeta.
//
// The emulator owns both ends, so a Conn links to its peer — the
// acceptor from the SYN, the dialer from the SYN-ACK — and every
// message names the Conn it lands on: a host has no demultiplexing
// table. A message is delivered only while its Conn is registered,
// from Dial's SYN (or the acceptor's queueing) until Close, a reset or
// a failed dial deregisters it.
//
// A request/response server answers each request through Answer, and
// its client calls through Host.Call; chord's client and bt's handshake
// read by hand (chord's Node.call and bt's recvHandshake say why).
//
// chord and gossip dial a connection per message, so an end is packed
// into 64 bytes, its size class (TestConnSize), and is one allocation:
// the remote endpoint is the peer's local one, so it is not stored;
// sequence numbers and the id are 32-bit; the local side is a port, its
// address being the host's; the flags sit together. What a task parks
// on — the inbox and the dialer's handshake Cond — is a recvState that
// the end borrows from its network's free list while a task may block
// on it (Network.acquireRecv, Conn.release). An end that has given it
// back reads as closed: Recv and RecvTimeout return ErrClosed. A
// connection carries at most 2³²−1 messages: the send that would wrap
// its sequence fails with ErrSeqExhausted. The id is only a trace
// label, shared by both ends: a network's 2³²-th dial wraps it to 0,
// after which labels repeat.
type Conn struct {
	h    *Host
	peer *Conn      // the other end; nil until the SYN-ACK reaches a dialer
	rs   *recvState // nil once given back

	// TCP-like sequencing: retransmitted messages may arrive out of
	// order relative to later messages or the FIN, so delivery to the
	// inbox is reordered by sequence number.
	pending map[uint32]any

	// sink, when set, receives messages instead of the inbox, and the
	// end once (eof clears it). It runs in kernel-callback context and
	// must not block.
	sink func(meta any, closed bool)

	sendSeq  uint32
	recvNext uint32
	finSeq   uint32
	id       uint32 // the trace label
	lport    ip.Port

	registered  bool // messages addressed to c are delivered
	established bool
	refused     bool
	closed      bool
	finSeen     bool
	ended       bool // the receive side has ended (eof)
}

// recvState is the part of a Conn a task parks on: the inbox, whose
// ring keeps its storage from owner to owner, and the dialer's
// handshake Cond. An end takes one when it is made (Dial, or deliver
// for an accepted SYN) and gives it back at the first point nothing
// can park on it or read from it (release); the network keeps a LIFO
// free list of them that never shrinks, as it does of xfers. 80 bytes
// (TestConnSize).
type recvState struct {
	inbox sim.Chan[any]
	hs    sim.Cond   // the dialer parks here until SYN-ACK or RST
	next  *recvState // free list
}

// idle reports whether rs may go to a new end: its inbox open, empty
// and read by no task, and no dialer on its handshake.
//
//p2p:token
func (rs *recvState) idle() bool { return rs.inbox.Idle() && rs.hs.Idle() }

// acquireRecv takes a receive state off the free list or builds one.
//
//p2p:token
func (n *Network) acquireRecv() *recvState {
	rs := n.freeRecv
	if rs == nil {
		return new(recvState)
	}
	if !rs.idle() {
		panic("vnet: a pooled receive state is in use")
	}
	n.freeRecv, rs.next = rs.next, nil
	return rs
}

// release gives c's receive state back to the network's free list: at
// Close, at a failed dial, at a backlog's refusal (a closing listener's
// or a full one's) and after SetSink's flush. Arrivals land only on
// registered ends and a sink takes them from there, so a state given
// back hears nothing more of c. A state whose inbox still buffers a
// message, or that a task still waits on — parked, or woken and not
// yet run — stays with c and goes with it to the collector. A closed
// inbox is reopened for its next owner.
//
//p2p:token
func (c *Conn) release() {
	rs := c.rs
	if rs == nil || !rs.hs.Idle() || !rs.inbox.Reset() {
		return
	}
	c.rs = nil
	n := c.h.net
	n.freeRecv, rs.next = rs, n.freeRecv
}

// register makes c deliverable and counts it in the network's
// connection gauges.
func (c *Conn) register() {
	c.registered = true
	n := c.h.net
	if c.established {
		n.connsEstablished++
	} else {
		n.connsHalfOpen++
	}
}

// deregister stops delivery to c; deregistering twice is harmless.
func (c *Conn) deregister() {
	if !c.registered {
		return
	}
	c.registered = false
	n := c.h.net
	if c.established {
		n.connsEstablished--
	} else {
		n.connsHalfOpen--
	}
}

// local returns the local endpoint.
func (c *Conn) local() ip.Endpoint { return ip.Endpoint{Addr: c.h.addr, Port: c.lport} }

// SetSink switches the connection to push delivery: every subsequent
// in-order message is handed to fn instead of the blocking inbox, and
// fn is called once with closed=true when the receive side ends.
// Messages already buffered are flushed to fn immediately, and on a
// connection that has already ended fn hears the end at once and is
// not kept. fn runs in kernel event context and must not block — the
// intended use is appending to an unbounded queue shared by many
// connections, so one goroutine can multiplex hundreds of peers
// without a reader goroutine each.
//
//p2p:token
func (c *Conn) SetSink(fn func(meta any, closed bool)) {
	c.sink = fn
	if rs := c.rs; rs != nil {
		for {
			meta, ok := rs.inbox.TryRecv()
			if !ok {
				break
			}
			c.land(meta)
		}
	}
	if c.ended {
		c.eof()
	}
	c.release()
}

// land hands one in-order message to the sink, or else to the inbox;
// an end whose state went back at SetSink and has no sink any more
// drops it.
//
//p2p:token
func (c *Conn) land(meta any) {
	if c.sink != nil {
		c.sink(meta, false)
	} else if c.rs != nil {
		c.rs.inbox.TrySend(meta)
	}
}

// eof ends the receive side (the FIN reached, or a reset): it marks c
// ended, closes the inbox and tells the sink, clearing it first, so a
// sink hears the end once however many ends arrive.
//
//p2p:token
func (c *Conn) eof() {
	c.ended = true
	if rs := c.rs; rs != nil {
		rs.inbox.Close()
	}
	if fn := c.sink; fn != nil {
		c.sink = nil
		fn(nil, true)
	}
}

// onData reorders an arriving data message into the inbox.
//
//p2p:token
func (c *Conn) onData(seq uint32, meta any) {
	if seq < c.recvNext {
		return // duplicate
	}
	if seq == c.recvNext && len(c.pending) == 0 {
		// In-order arrival with nothing buffered — the overwhelming
		// common case under FIFO pipes: deliver directly instead of
		// bouncing the message through the reorder map.
		c.recvNext++
		c.land(meta)
		c.checkFin()
		return
	}
	if c.pending == nil {
		c.pending = make(map[uint32]any)
	}
	c.pending[seq] = meta
	c.flushInOrder()
}

// onFin records the end-of-stream sequence and closes once reached.
//
//p2p:token
func (c *Conn) onFin(seq uint32) {
	c.finSeen = true
	c.finSeq = seq
	c.flushInOrder()
}

//p2p:token
func (c *Conn) flushInOrder() {
	for {
		meta, ok := c.pending[c.recvNext]
		if !ok {
			break
		}
		delete(c.pending, c.recvNext)
		c.recvNext++
		c.land(meta)
	}
	c.checkFin()
}

// checkFin ends the receive side once the FIN's sequence is reached.
//
//p2p:token
func (c *Conn) checkFin() {
	if c.finSeen && c.recvNext >= c.finSeq {
		c.eof()
	}
}

// RemoteAddr returns the remote endpoint: the peer's local one.
func (c *Conn) RemoteAddr() ip.Endpoint { return c.peer.local() }

// SendMeta transmits one message: size payload bytes on the wire
// carrying the protocol value meta, which the receiver's Recv or sink
// returns as is. The network charges size (the net.deliver record and
// the byte counters carry it) but no bytes are materialized, so a large
// swarm moves gigabytes of piece data without allocating them.
func (c *Conn) SendMeta(p *sim.Proc, size int, meta any) error {
	if c.closed || !c.established {
		return ErrClosed
	}
	if c.sendSeq == math.MaxUint32 {
		return ErrSeqExhausted
	}
	c.h.syscall(p, sysSend)
	c.emit(kindData, size, meta)
	c.sendSeq++
	return nil
}

// emit transmits one message of c's stream, a data message or the FIN,
// at sequence number c.sendSeq, writing it straight into the xfer that
// carries it (Network.transmit says why).
//
//p2p:token
func (c *Conn) emit(kind msgKind, size int, meta any) {
	x := c.h.net.post(c.h, c.peer.h, true)
	x.m.kind, x.m.size, x.m.meta = kind, size, meta
	x.m.src, x.m.dst = c.local(), c.peer.local()
	x.m.from, x.m.to, x.m.seq = c, c.peer, c.sendSeq
	x.launch()
}

// Recv blocks until a message arrives and returns the value its sender
// passed to SendMeta. It returns ErrClosed once the receive side has
// ended and the inbox drains, and at once on an end that has given its
// receive state back.
func (c *Conn) Recv(p *sim.Proc) (any, error) {
	c.h.syscall(p, sysRecv)
	if c.rs == nil {
		return nil, ErrClosed
	}
	return c.rs.inbox.Recv(p)
}

// RecvTimeout is Recv with a virtual-time deadline; ok=false with nil
// error means the deadline expired.
func (c *Conn) RecvTimeout(p *sim.Proc, d sim.Duration) (any, bool, error) {
	c.h.syscall(p, sysRecv)
	if c.rs == nil {
		return nil, false, ErrClosed
	}
	return c.rs.inbox.RecvTimeout(p, d)
}

// Close sends a FIN and closes the local side. Receiving continues to
// drain buffered data on the peer; locally, what the inbox buffered
// stays readable. Close is idempotent.
func (c *Conn) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.h.syscall(p, sysClose)
	if c.established {
		c.emit(kindFin, 20, nil)
	}
	c.deregister()
	c.release()
	return nil
}

// Answer serves one request on c: it reads it within wait (0 waits
// forever), passes it and its sender's address to answer, and sends the
// reply unless it is nil. It reports false once the read found c ended
// or timed out, or the reply failed to send; the caller closes c.
func (c *Conn) Answer(p *sim.Proc, wait sim.Duration, answer func(p *sim.Proc, from ip.Endpoint, req any) (size int, reply any)) bool {
	req, ok, err := c.RecvTimeout(p, wait)
	if err != nil || !ok {
		return false
	}
	size, reply := answer(p, c.RemoteAddr(), req)
	return reply == nil || c.SendMeta(p, size, reply) == nil
}

// Call is one request/response exchange from the client's side: it
// dials to, sends req charged size bytes and, when wait > 0, reads one
// reply within wait and passes it to reply before it closes. It
// returns the dial's, the send's or the read's error, and ErrTimeout
// when wait passes; with wait 0 it sends and closes without reading.
func (h *Host) Call(p *sim.Proc, to ip.Endpoint, size int, req any, wait sim.Duration, reply func(any)) error {
	c, err := h.Dial(p, to)
	if err != nil {
		return err
	}
	if err = c.SendMeta(p, size, req); err == nil && wait > 0 {
		meta, ok, rerr := c.RecvTimeout(p, wait)
		if err = rerr; ok {
			reply(meta)
		} else if err == nil {
			err = ErrTimeout
		}
	}
	c.Close(p)
	return err
}

// Listener accepts inbound connections on a host port.
type Listener struct {
	h       *Host
	port    ip.Port
	backlog *sim.Chan[*Conn]
	closed  bool
}

// Accept blocks until a connection arrives; it returns ErrClosed after
// Close.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	l.h.syscall(p, sysAccept)
	return l.backlog.Recv(p)
}

// Serve accepts until the listener closes and runs handle on each
// connection in a task of its own named name, spawned in accept order
// (DESIGN decision 11). The task's closure only calls handle, so it
// adds one small frame under it.
func (l *Listener) Serve(p *sim.Proc, name string, handle func(*sim.Proc, *Conn)) {
	for {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		p.Go(name, func(p *sim.Proc) { handle(p, c) })
	}
}

// Close stops accepting. Pending backlog connections are refused: each
// queued connection was already SYN-ACK'd and registered, so the
// dialer side is established — closing the backlog alone would leave
// those dialers half-open forever. Draining sends each one an RST
// (dialers see ErrClosed) and deregisters the local side.
//
//p2p:token
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.h.ports, l.port)
	l.backlog.Close()
	for {
		c, ok := l.backlog.TryRecv()
		if !ok {
			break
		}
		c.closed = true
		c.deregister()
		c.eof()
		c.release()
		l.h.net.transmit(l.h, c.peer.h, message{
			kind: kindRst, src: c.local(), dst: c.peer.local(), size: 20, to: c.peer,
		}, true)
	}
}
