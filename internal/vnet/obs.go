package vnet

import "repro/internal/netem"

// initObs registers the network's instruments on cfg.Obs: pull-style
// collectors for state that subsystems already keep — NetworkStats,
// connection tables, netem pipe stats and, under the flow model, the
// solver's counters. Collectors are evaluated only at
// snapshot time, in kernel context, and all of them reduce by
// order-independent sums, so host-map iteration order cannot leak into
// the exposed values.
func (n *Network) initObs() {
	reg := n.cfg.Obs
	if reg == nil {
		return
	}

	st := &n.stats
	reg.CounterFunc("p2plab_net_messages_sent_total", "Messages handed to the transmit path.", func() uint64 { return st.MessagesSent })
	reg.CounterFunc("p2plab_net_messages_delivered_total", "Messages delivered to a destination host.", func() uint64 { return st.MessagesDelivered })
	reg.CounterFunc("p2plab_net_messages_dropped_total", "Messages dropped (loss, overflow, partition, retransmit exhaustion).", func() uint64 { return st.MessagesDropped })
	reg.CounterFunc("p2plab_net_retransmits_total", "Retransmission attempts of reliable messages.", func() uint64 { return st.Retransmits })
	reg.CounterFunc("p2plab_net_rule_denied_total", "Transmission attempts dropped by a firewall deny rule.", func() uint64 { return st.RuleDenied })
	reg.CounterFunc("p2plab_net_bytes_delivered_total", "Wire bytes delivered (payload plus header overhead).", func() uint64 { return st.BytesDelivered })

	// Connection table: established vs half-open (a conn a handshake or
	// a one-sided reset has left without the established flag).
	reg.GaugeFunc("p2plab_net_conns_established", "Connections currently established, summed over hosts.", func() float64 {
		est := 0
		for _, h := range n.order {
			h.conns.forEach(func(c *Conn) {
				if c.established {
					est++
				}
			})
		}
		return float64(est)
	})
	reg.GaugeFunc("p2plab_net_conns_half_open", "Connections registered but not (or no longer) established.", func() float64 {
		half := 0
		for _, h := range n.order {
			h.conns.forEach(func(c *Conn) {
				if !c.established {
					half++
				}
			})
		}
		return float64(half)
	})

	// Access-link pipes, aggregated over every host's up and down pipe
	// (fabric-internal and firewall pipes are owned elsewhere).
	eachPipe := func(f func(p *netem.Pipe)) {
		for _, h := range n.order {
			f(h.up)
			f(h.down)
		}
	}
	reg.CounterFunc("p2plab_netem_messages_total", "Messages accepted by access-link pipes.", func() uint64 {
		var v uint64
		eachPipe(func(p *netem.Pipe) { v += p.Stats().Messages })
		return v
	})
	reg.CounterFunc("p2plab_netem_bytes_total", "Bytes accepted by access-link pipes.", func() uint64 {
		var v uint64
		eachPipe(func(p *netem.Pipe) { v += p.Stats().Bytes })
		return v
	})
	reg.CounterFunc("p2plab_netem_dropped_loss_total", "Pipe drops from random loss.", func() uint64 {
		var v uint64
		eachPipe(func(p *netem.Pipe) { v += p.Stats().Lost })
		return v
	})
	reg.CounterFunc("p2plab_netem_dropped_overflow_total", "Pipe drops from bounded-queue overflow.", func() uint64 {
		var v uint64
		eachPipe(func(p *netem.Pipe) { v += p.Stats().Overflows })
		return v
	})
	reg.GaugeFunc("p2plab_netem_backlog_bytes", "Bytes queued behind access-link serializers right now.", func() float64 {
		now := n.k.Now()
		var v int64
		eachPipe(func(p *netem.Pipe) { v += p.Backlog(now) })
		return float64(v)
	})
	// Mean lifetime utilization of the bandwidth-limited access pipes:
	// accepted bits over capacity×elapsed, aggregated network-wide.
	reg.GaugeFunc("p2plab_netem_utilization_mean", "Accepted bits / (capacity x elapsed) over limited access pipes.", func() float64 {
		now := n.k.Now().Seconds()
		if now <= 0 {
			return 0
		}
		var bits, capacity float64
		eachPipe(func(p *netem.Pipe) {
			if bw := p.Config().Bandwidth; bw > 0 {
				bits += float64(p.Stats().Bytes) * 8
				capacity += float64(bw) * now
			}
		})
		if capacity == 0 {
			return 0
		}
		return bits / capacity
	})

	// Flow-solver counters, present only under the flow model.
	if fm := n.flow; fm != nil {
		reg.CounterFunc("p2plab_flow_solves_total", "Component re-solves of the max-min fair share.", func() uint64 {
			return fm.Stats().Solves
		})
		reg.CounterFunc("p2plab_flow_solved_flows_total", "Flows re-leveled across all re-solves.", func() uint64 {
			return fm.Stats().SolvedFlows
		})
		reg.CounterFunc("p2plab_flow_flushes_total", "Batch windows drained (window > 0 only).", func() uint64 {
			return fm.Stats().Flushes
		})
		reg.CounterFunc("p2plab_flow_batched_total", "Churn events coalesced into batches.", func() uint64 {
			return fm.Stats().Batched
		})
		reg.CounterFunc("p2plab_flow_started_total", "Flows admitted.", func() uint64 {
			return fm.Stats().Started
		})
		reg.CounterFunc("p2plab_flow_completed_total", "Flows delivered.", func() uint64 {
			return fm.Stats().Completed
		})
		reg.GaugeFunc("p2plab_flow_flows_per_solve", "Mean flows re-leveled per component re-solve.", func() float64 {
			st := fm.Stats()
			if st.Solves == 0 {
				return 0
			}
			return float64(st.SolvedFlows) / float64(st.Solves)
		})
	}
}
