package vnet

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Host is one virtual node: a network identity (the alias address), an
// access link (up/down pipes) and a port table. It keeps no table of
// connections or pings: a message names the Conn or the ping it lands
// on, so only a SYN reads the port table. All
// blocking methods take the calling simulated process.
type Host struct {
	net      *Network
	addr     ip.Addr
	up, down *netem.Pipe
	ports    map[ip.Port]*Listener
	nextPort ip.Port
	bindEnv  ip.Addr // non-zero: BINDIP interception active
	linkDown bool    // interface administratively down (Network.SetLinkUp)
}

// Addr returns the host's address (its virtualized network identity).
func (h *Host) Addr() ip.Addr { return h.addr }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// SetBindEnv enables the BINDIP libc-interception model: every connect
// and listen is preceded by an extra getenv and bind charged to the
// process, and any explicit local address is overridden by env — the
// paper's "naive approach" in the Virtualization section. A zero
// address disables interception.
func (h *Host) SetBindEnv(addr ip.Addr) { h.bindEnv = addr }

// syscall charges one emulated system call to the calling process: it
// sleeps for the call's cost.
func (h *Host) syscall(p *sim.Proc, s sysno) {
	p.Sleep(syscallCost[s])
}

// interceptBind models the modified-libc preamble: read BINDIP, then
// bind the socket to it (ignoring failure if already bound).
func (h *Host) interceptBind(p *sim.Proc) {
	if h.bindEnv.IsZero() {
		return
	}
	h.syscall(p, sysGetenv)
	h.syscall(p, sysBind)
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

// Dial opens a TCP-like connection to raddr, performing the emulated
// socket()/[bind()]/connect() sequence and a SYN/SYNACK handshake on the
// virtual network. It blocks until established, refused or timed out.
func (h *Host) Dial(p *sim.Proc, raddr ip.Endpoint) (*Conn, error) {
	h.syscall(p, sysSocket)
	h.interceptBind(p)
	h.syscall(p, sysConnect)

	n := h.net
	n.nextID++
	c := &Conn{
		h:     h,
		id:    n.nextID,
		lport: h.allocPort(),
	}
	c.register()
	x := n.post(h, n.hosts[raddr.Addr], true)
	if x == nil {
		c.deregister()
		return nil, dialError(raddr, ErrNetUnreachable)
	}
	x.m.kind, x.m.src, x.m.dst, x.m.size, x.m.from = kindSyn, c.local(), raddr, 20, c
	x.launch()
	if !c.established && !c.refused {
		c.hs.WaitTimeout(p, n.cfg.HandshakeTimeout)
	}
	if c.established {
		return c, nil
	}
	c.deregister()
	if c.refused {
		return nil, dialError(raddr, ErrConnRefused)
	}
	return nil, dialError(raddr, ErrTimeout)
}

// dialError is a failed dial's error. It is kept out of Dial's frame,
// which every per-message task pays: fmt's boxed arguments took a
// quarter of it.
//
//go:noinline
func dialError(raddr ip.Endpoint, err error) error {
	return fmt.Errorf("dial %v: %w", raddr, err)
}

// Listen binds a listener to port, performing the emulated
// socket()/bind()/listen() sequence (plus the interception preamble when
// BINDIP is set).
func (h *Host) Listen(p *sim.Proc, port ip.Port) (*Listener, error) {
	h.syscall(p, sysSocket)
	h.syscall(p, sysBind)
	h.interceptBind(p)
	h.syscall(p, sysListen)
	if _, used := h.ports[port]; used {
		return nil, fmt.Errorf("listen %v:%d: %w", h.addr, port, ErrPortAlreadyBound)
	}
	l := &Listener{
		h:       h,
		port:    port,
		backlog: sim.NewChan[*Conn](h.net.k, 128),
	}
	h.ports[port] = l
	return l, nil
}

// deliver dispatches an arriving message to the socket it names: a
// SYN to the listener on its port, an echo request to the host itself,
// and everything else to the Conn or ping it carries. It runs inside
// kernel event callbacks.
//
//p2p:token
func (h *Host) deliver(m message) {
	n := h.net
	switch m.kind {
	case kindSyn:
		l := h.ports[m.dst.Port]
		if l == nil || l.closed {
			n.transmit(h, m.from.h, message{kind: kindRst, src: m.dst, dst: m.src, size: 20, to: m.from}, true)
			return
		}
		c := &Conn{
			h:           h,
			id:          m.from.id,
			peer:        m.from,
			lport:       m.dst.Port,
			established: true,
		}
		if !l.backlog.TrySend(c) {
			n.transmit(h, m.from.h, message{kind: kindRst, src: m.dst, dst: m.src, size: 20, to: m.from}, true)
			return
		}
		c.register()
		n.transmit(h, m.from.h, message{kind: kindSynAck, src: m.dst, dst: m.src, size: 20, from: c, to: m.from}, true)
	case kindSynAck:
		if c := m.to; c.registered && !c.established {
			c.peer = m.from
			c.established = true
			n.connsHalfOpen--
			n.connsEstablished++
			c.hs.Broadcast()
		}
	case kindRst:
		if c := m.to; c.registered {
			if !c.established {
				c.refused = true
				c.hs.Broadcast()
			} else {
				// A reset of an established connection (e.g. the peer's
				// listener closed with this conn still in its backlog)
				// tears the endpoint down: further sends fail and the
				// reader observes the close.
				c.deregister()
				c.closed = true
				c.eof()
			}
		}
	case kindData:
		// Only a test's one-way probe (export_test.go's SendOnce)
		// names no Conn; it is discarded.
		if c := m.to; c != nil && c.registered {
			c.onData(m.seq, m.meta)
		}
	case kindFin:
		if c := m.to; c.registered {
			c.onFin(m.seq)
		}
	case kindEchoReq:
		reply := message{
			kind: kindEchoRep, src: m.dst, dst: m.src,
			size: m.size, meta: m.meta,
		}
		n.transmit(h, n.hosts[m.src.Addr], reply, false)
	case kindEchoRep:
		// A reply after its Ping timed out wakes nobody.
		w := m.meta.(*pingWaiter)
		w.replied = true
		w.cond.Broadcast()
	}
}
