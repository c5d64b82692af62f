package vnet

import (
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// pingWaiter tracks one outstanding echo request. The request carries
// it as its meta and the reply hands it back, so no host keeps a table
// of pings.
type pingWaiter struct {
	cond    sim.Cond
	replied bool
}

// DefaultPingSize is the classic 56-byte ICMP echo payload.
const DefaultPingSize = 56

// Ping sends one echo request of size bytes from the host to dst and
// returns the measured round-trip time on the virtual clock — the
// measurement behind the paper's Fig 6 (RTT vs firewall rules) and
// Fig 7 (853 ms topology check). ok=false means the reply did not
// arrive within timeout (lost, denied, or unknown destination).
func (h *Host) Ping(p *sim.Proc, dst ip.Addr, size int, timeout time.Duration) (time.Duration, bool) {
	n := h.net
	w := &pingWaiter{}
	start := p.Now()
	sent := n.transmit(h, n.hosts[dst], message{
		kind: kindEchoReq,
		src:  ip.Endpoint{Addr: h.addr},
		dst:  ip.Endpoint{Addr: dst},
		size: size, meta: w,
	}, false)
	if !sent {
		return 0, false
	}
	if !w.replied {
		w.cond.WaitTimeout(p, timeout)
	}
	if !w.replied {
		return 0, false
	}
	return time.Duration(p.Now().Sub(start)), true
}

// PingStats summarizes repeated pings, like the min/avg/max line of the
// ping utility (used for Fig 6's "round trip time (avg, min, max)").
type PingStats struct {
	Sent, Received int
	Min, Avg, Max  time.Duration
}

// PingSeries sends count pings separated by interval and aggregates the
// results.
func (h *Host) PingSeries(p *sim.Proc, dst ip.Addr, size, count int, interval, timeout time.Duration) PingStats {
	var st PingStats
	var total time.Duration
	for i := 0; i < count; i++ {
		if i > 0 {
			p.Sleep(interval)
		}
		st.Sent++
		rtt, ok := h.Ping(p, dst, size, timeout)
		if !ok {
			continue
		}
		st.Received++
		total += rtt
		if st.Min == 0 || rtt < st.Min {
			st.Min = rtt
		}
		if rtt > st.Max {
			st.Max = rtt
		}
	}
	if st.Received > 0 {
		st.Avg = total / time.Duration(st.Received)
	}
	return st
}
