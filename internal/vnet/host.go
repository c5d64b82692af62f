package vnet

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Host is one virtual node: a network identity (the alias address), an
// access link (up/down pipes), a port table and a syscall meter. All
// blocking methods take the calling simulated process.
type Host struct {
	net      *Network
	addr     ip.Addr
	up, down *netem.Pipe
	ports    map[ip.Port]*portEntry
	nextPort ip.Port
	conns    connTable
	meter    SyscallMeter
	bindEnv  ip.Addr // non-zero: BINDIP interception active
	linkDown bool    // interface administratively down (Network.SetLinkUp)
	pingers  map[uint64]*pingWaiter
}

// LinkUp reports whether the host's interface is up (see
// Network.SetLinkUp).
func (h *Host) LinkUp() bool { return !h.linkDown }

type portEntry struct {
	listener *Listener
	packet   *PacketConn
}

// Addr returns the host's address (its virtualized network identity).
func (h *Host) Addr() ip.Addr { return h.addr }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// UpPipe exposes the uplink's access pipe for inspection.
func (h *Host) UpPipe() *netem.Pipe { return h.up }

// LinkModel returns the link model carrying this host's traffic — the
// network-wide model chosen by Config.Model.
func (h *Host) LinkModel() netem.LinkModel { return h.net.model }

// Meter returns the host's syscall meter (counts and accumulated cost).
func (h *Host) Meter() *SyscallMeter { return &h.meter }

// SetBindEnv enables the BINDIP libc-interception model: every connect
// and listen is preceded by an extra getenv and bind charged to the
// process, and any explicit local address is overridden by env — the
// paper's "naive approach" in the Virtualization section. A zero
// address disables interception.
func (h *Host) SetBindEnv(addr ip.Addr) { h.bindEnv = addr }

// syscall charges one emulated system call to the calling process.
func (h *Host) syscall(p *sim.Proc, s Syscall) {
	if d := h.meter.Charge(s); d > 0 {
		p.Sleep(d)
	}
}

// interceptBind models the modified-libc preamble: read BINDIP, then
// bind the socket to it (ignoring failure if already bound).
func (h *Host) interceptBind(p *sim.Proc) {
	if h.bindEnv.IsZero() {
		return
	}
	h.syscall(p, SyscallGetenv)
	h.syscall(p, SyscallBind)
}

// allocPort returns a fresh ephemeral port.
func (h *Host) allocPort() ip.Port {
	for {
		port := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 49152
		}
		if _, used := h.ports[port]; !used {
			if port != 0 {
				return port
			}
		}
	}
}

// conn registers c in the host's connection table.
func (h *Host) addConn(c *Conn) { h.conns.add(c) }

// Dial opens a TCP-like connection to raddr, performing the emulated
// socket()/[bind()]/connect() sequence and a SYN/SYNACK handshake on the
// virtual network. It blocks until established, refused or timed out.
func (h *Host) Dial(p *sim.Proc, raddr ip.Endpoint) (*Conn, error) {
	h.syscall(p, SyscallSocket)
	h.interceptBind(p)
	h.syscall(p, SyscallConnect)

	local := ip.Endpoint{Addr: h.addr, Port: h.allocPort()}
	n := h.net
	n.nextID++
	c := &Conn{
		h:      h,
		id:     n.nextID,
		local:  local,
		remote: raddr,
		inbox:  sim.NewChan[Packet](n.k, 0),
		hs:     sim.NewCond(n.k),
	}
	h.addConn(c)
	sent := n.transmit(h, message{
		kind: kindSyn, src: local, dst: raddr, size: 20, connID: c.id,
	}, true)
	if !sent {
		h.conns.del(c.id)
		return nil, fmt.Errorf("dial %v: %w", raddr, ErrNetUnreachable)
	}
	if !c.established && !c.refused {
		c.hs.WaitTimeout(p, n.cfg.HandshakeTimeout)
	}
	switch {
	case c.established:
		return c, nil
	case c.refused:
		h.conns.del(c.id)
		return nil, fmt.Errorf("dial %v: %w", raddr, ErrConnRefused)
	default:
		h.conns.del(c.id)
		return nil, fmt.Errorf("dial %v: %w", raddr, ErrTimeout)
	}
}

// Listen binds a listener to port, performing the emulated
// socket()/bind()/listen() sequence (plus the interception preamble when
// BINDIP is set).
func (h *Host) Listen(p *sim.Proc, port ip.Port) (*Listener, error) {
	h.syscall(p, SyscallSocket)
	h.syscall(p, SyscallBind)
	h.interceptBind(p)
	h.syscall(p, SyscallListen)
	if _, used := h.ports[port]; used {
		return nil, fmt.Errorf("listen %v:%d: %w", h.addr, port, ErrPortAlreadyBound)
	}
	l := &Listener{
		h:       h,
		port:    port,
		backlog: sim.NewChan[*Conn](h.net.k, 128),
	}
	h.ports[port] = &portEntry{listener: l}
	return l, nil
}

// deliver dispatches an arriving message to the right socket. It runs
// inside kernel event callbacks.
//
//p2p:token
func (h *Host) deliver(m message) {
	n := h.net
	switch m.kind {
	case kindSyn:
		entry := h.ports[m.dst.Port]
		if entry == nil || entry.listener == nil || entry.listener.closed {
			n.transmit(h, message{kind: kindRst, src: m.dst, dst: m.src, size: 20, connID: m.connID}, true)
			return
		}
		c := &Conn{
			h:           h,
			id:          m.connID,
			local:       m.dst,
			remote:      m.src,
			inbox:       sim.NewChan[Packet](n.k, 0),
			hs:          sim.NewCond(n.k),
			established: true,
		}
		if !entry.listener.backlog.TrySend(c) {
			n.transmit(h, message{kind: kindRst, src: m.dst, dst: m.src, size: 20, connID: m.connID}, true)
			return
		}
		h.addConn(c)
		n.transmit(h, message{kind: kindSynAck, src: m.dst, dst: m.src, size: 20, connID: m.connID}, true)
	case kindSynAck:
		if c := h.conns.get(m.connID); c != nil && !c.established {
			c.established = true
			c.hs.Broadcast()
		}
	case kindRst:
		if c := h.conns.get(m.connID); c != nil {
			if !c.established {
				c.refused = true
				c.hs.Broadcast()
			} else {
				// A reset of an established connection (e.g. the peer's
				// listener closed with this conn still in its backlog)
				// tears the endpoint down: further sends fail and the
				// reader observes the close.
				h.conns.del(m.connID)
				c.closed = true
				c.abort()
			}
		}
	case kindData:
		if c := h.conns.get(m.connID); c != nil {
			c.onData(m.seq, Packet{Data: m.payload, Meta: m.meta, Size: m.size, From: m.src})
		}
	case kindFin:
		if c := h.conns.get(m.connID); c != nil {
			c.onFin(m.seq)
		}
	case kindDatagram:
		if entry := h.ports[m.dst.Port]; entry != nil && entry.packet != nil {
			entry.packet.inbox.TrySend(Packet{Data: m.payload, Meta: m.meta, Size: m.size, From: m.src})
		}
	case kindEchoReq:
		reply := message{
			kind: kindEchoRep, src: m.dst, dst: m.src,
			size: m.size, echoID: m.echoID,
		}
		n.transmit(h, reply, false)
	case kindEchoRep:
		if w := h.pingers[m.echoID]; w != nil {
			w.replied = true
			w.cond.Broadcast()
		}
	}
}
