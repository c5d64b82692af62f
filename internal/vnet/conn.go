package vnet

import (
	"errors"

	"repro/internal/ip"
	"repro/internal/sim"
)

// Packet is one received message: the protocol value the sender
// passed to SendMeta and the payload size it was charged at on the
// wire. No bytes are materialized, so a large swarm moves gigabytes of
// piece data without allocating them.
type Packet struct {
	Meta any
	Size int
	From ip.Endpoint
}

// Conn is a TCP-like reliable, ordered, message-boundary-preserving
// connection between two virtual nodes. Reliability is modelled (lossy
// pipes trigger retransmission with backoff); ordering follows from the
// FIFO pipe model.
type Conn struct {
	h      *Host
	id     uint64
	local  ip.Endpoint
	remote ip.Endpoint
	// The inbox and the handshake Cond are held by value, so an
	// endpoint is one allocation: chord and gossip dial a connection
	// per message. Host.Dial and deliver dereference the inlined
	// NewChan/NewCond, which keeps the constructors' objects off the heap.
	inbox       sim.Chan[Packet]
	hs          sim.Cond
	established bool
	refused     bool
	closed      bool

	// TCP-like sequencing: retransmitted messages may arrive out of
	// order relative to later messages or the FIN, so delivery to the
	// inbox is reordered by sequence number.
	sendSeq  uint64
	recvNext uint64
	pending  map[uint64]Packet
	finSeen  bool
	finSeq   uint64

	// sink, when set, receives packets instead of the inbox. It runs in
	// kernel-callback context and must not block.
	sink    func(pk Packet, closed bool)
	sinkEOF bool
}

// SetSink switches the connection to push delivery: every subsequent
// in-order packet is handed to fn instead of the blocking inbox, and fn
// is called once with closed=true when the peer side closes. Packets
// already buffered are flushed to fn immediately. fn runs in kernel
// event context and must not block — the intended use is appending to an
// unbounded queue shared by many connections, so one goroutine can
// multiplex hundreds of peers without a reader goroutine each.
//
//p2p:token
func (c *Conn) SetSink(fn func(pk Packet, closed bool)) {
	c.sink = fn
	for {
		pk, ok := c.inbox.TryRecv()
		if !ok {
			break
		}
		fn(pk, false)
	}
	if c.inbox.Closed() && !c.sinkEOF {
		c.sinkEOF = true
		fn(Packet{}, true)
	}
}

// onData reorders an arriving data message into the inbox.
//
//p2p:token
func (c *Conn) onData(seq uint64, pk Packet) {
	if seq < c.recvNext {
		return // duplicate
	}
	if seq == c.recvNext && len(c.pending) == 0 {
		// In-order arrival with nothing buffered — the overwhelming
		// common case under FIFO pipes: deliver directly instead of
		// bouncing the packet through the reorder map.
		c.recvNext++
		if c.sink != nil {
			c.sink(pk, false)
		} else {
			c.inbox.TrySend(pk)
		}
		c.checkFin()
		return
	}
	if c.pending == nil {
		c.pending = make(map[uint64]Packet)
	}
	c.pending[seq] = pk
	c.flushInOrder()
}

// abort tears the receive side down immediately (RST).
//
//p2p:token
func (c *Conn) abort() {
	c.inbox.Close()
	if c.sink != nil && !c.sinkEOF {
		c.sinkEOF = true
		c.sink(Packet{}, true)
	}
}

// onFin records the end-of-stream sequence and closes once reached.
//
//p2p:token
func (c *Conn) onFin(seq uint64) {
	c.finSeen = true
	c.finSeq = seq
	c.flushInOrder()
}

//p2p:token
func (c *Conn) flushInOrder() {
	for {
		pk, ok := c.pending[c.recvNext]
		if !ok {
			break
		}
		delete(c.pending, c.recvNext)
		c.recvNext++
		if c.sink != nil {
			c.sink(pk, false)
		} else {
			c.inbox.TrySend(pk)
		}
	}
	c.checkFin()
}

// checkFin closes the receive side once the FIN's sequence is reached.
//
//p2p:token
func (c *Conn) checkFin() {
	if c.finSeen && c.recvNext >= c.finSeq {
		c.inbox.Close()
		if c.sink != nil && !c.sinkEOF {
			c.sinkEOF = true
			c.sink(Packet{}, true)
		}
	}
}

// RemoteAddr returns the remote endpoint.
func (c *Conn) RemoteAddr() ip.Endpoint { return c.remote }

// SendMeta transmits one message: size payload bytes on the wire
// carrying the protocol value meta, which the receiver reads back as
// Packet.Meta.
func (c *Conn) SendMeta(p *sim.Proc, size int, meta any) error {
	if c.closed || !c.established {
		return ErrClosed
	}
	c.h.syscall(p, SyscallSend)
	m := message{
		kind: kindData, src: c.local, dst: c.remote, size: size,
		meta: meta, connID: c.id, seq: c.sendSeq,
	}
	c.sendSeq++
	if !c.h.net.transmit(c.h, m, true) {
		return ErrNetUnreachable
	}
	return nil
}

// Recv blocks until a message arrives. It returns ErrClosed after the
// peer closes and the inbox drains.
func (c *Conn) Recv(p *sim.Proc) (Packet, error) {
	c.h.syscall(p, SyscallRecv)
	pk, err := c.inbox.Recv(p)
	if errors.Is(err, sim.ErrClosed) {
		return pk, ErrClosed
	}
	return pk, err
}

// RecvTimeout is Recv with a virtual-time deadline; ok=false with nil
// error means the deadline expired.
func (c *Conn) RecvTimeout(p *sim.Proc, d sim.Duration) (Packet, bool, error) {
	c.h.syscall(p, SyscallRecv)
	pk, ok, err := c.inbox.RecvTimeout(p, d)
	if errors.Is(err, sim.ErrClosed) {
		return pk, ok, ErrClosed
	}
	return pk, ok, err
}

// Close sends a FIN and closes the local side. Receiving continues to
// drain buffered data on the peer. Close is idempotent.
func (c *Conn) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.h.syscall(p, SyscallClose)
	if c.established {
		c.h.net.transmit(c.h, message{
			kind: kindFin, src: c.local, dst: c.remote, size: 20,
			connID: c.id, seq: c.sendSeq,
		}, true)
	}
	c.h.conns.del(c.id)
	return nil
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
	l.h.syscall(p, SyscallAccept)
	c, err := l.backlog.Recv(p)
	if errors.Is(err, sim.ErrClosed) {
		return nil, ErrClosed
	}
	return c, err
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
		l.h.conns.del(c.id)
		c.abort()
		l.h.net.transmit(l.h, message{
			kind: kindRst, src: c.local, dst: c.remote, size: 20, connID: c.id,
		}, true)
	}
}
