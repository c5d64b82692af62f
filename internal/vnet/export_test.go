package vnet

import (
	"repro/internal/ip"
	"repro/internal/netem"
)

// SendOnce transmits one message of size payload bytes from h to dst
// that is never retransmitted and charges no syscall: a one-way probe
// whose loss is final, for tests that must see a single attempt. It
// reports whether transmit accepted the message (false for an unknown
// destination or a denied fabric route). The probe belongs to no
// connection, so the destination host discards it on arrival; tests
// observe it through NetworkStats and the trace.
func (h *Host) SendOnce(dst ip.Endpoint, size int) bool {
	return h.net.transmit(h, h.net.hosts[dst.Addr], message{kind: kindData, src: ip.Endpoint{Addr: h.addr}, dst: dst, size: size}, false)
}

// LocalAddr returns the local endpoint.
func (c *Conn) LocalAddr() ip.Endpoint { return c.local() }

// LinkUp reports whether the host's interface is up (see
// Network.SetLinkUp).
func (h *Host) LinkUp() bool { return !h.linkDown }

// UpPipe exposes the uplink's access pipe for inspection.
func (h *Host) UpPipe() *netem.Pipe { return h.up }
