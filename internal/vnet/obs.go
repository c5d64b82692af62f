package vnet

import "repro/internal/netem"

// initObs registers the network's instruments on cfg.Obs: pull-style
// collectors for state that subsystems already keep — NetworkStats,
// the firewall's scan counts, connection and in-flight counts, netem
// pipe stats and, under the flow model, the solver's counters. The NetworkStats and
// firewall families name the columns a scenario run reports them as.
// Collectors are evaluated only at snapshot time, in kernel context,
// and all of them reduce by order-independent sums, so host-map
// iteration order cannot leak into the exposed values.
func (n *Network) initObs() {
	reg := n.cfg.Obs
	st := &n.stats
	denied := "" // a column only where a firewall exists
	if rs := n.cfg.Rules; rs != nil {
		denied = "net-rule-denied"
		reg.CounterFunc("p2plab_net_rule_evals_total", "fw-evals", "Firewall table evaluations.", func() uint64 { evals, _ := rs.EvalStats(); return evals })
		reg.CounterFunc("p2plab_net_rules_visited_total", "fw-visited", "Firewall rules visited over all evaluations.", func() uint64 { _, visited := rs.EvalStats(); return visited })
	}
	reg.CounterFunc("p2plab_net_messages_sent_total", "net-sent", "Messages handed to the transmit path.", func() uint64 { return st.MessagesSent })
	reg.CounterFunc("p2plab_net_messages_delivered_total", "net-delivered", "Messages delivered to a destination host.", func() uint64 { return st.MessagesDelivered })
	reg.CounterFunc("p2plab_net_messages_dropped_total", "net-dropped", "Messages dropped (loss, partition, retransmit exhaustion).", func() uint64 { return st.MessagesDropped })
	reg.CounterFunc("p2plab_net_retransmits_total", "net-retransmits", "Retransmission attempts of reliable messages.", func() uint64 { return st.Retransmits })
	reg.CounterFunc("p2plab_net_rule_denied_total", denied, "Transmission attempts dropped by a firewall deny rule.", func() uint64 { return st.RuleDenied })
	reg.CounterFunc("p2plab_net_bytes_delivered_total", "net-bytes", "Wire bytes delivered (payload plus header overhead).", func() uint64 { return st.BytesDelivered })

	// Registered connections: established vs half-open (a dialer
	// waiting on its handshake). The Network counts them as they
	// register, establish and deregister.
	reg.GaugeFunc("p2plab_net_conns_established", "", "Connections currently established, summed over hosts.", func() float64 { return float64(n.connsEstablished) })
	reg.GaugeFunc("p2plab_net_conns_half_open", "", "Connections registered but not (or no longer) established.", func() float64 { return float64(n.connsHalfOpen) })
	reg.GaugeFunc("p2plab_net_messages_in_flight", "", "Messages sent and neither delivered nor dropped yet.", func() float64 { return float64(n.inFlight) })

	// Access-link pipes, aggregated over every host's up and down pipe
	// (the fabric's pipes are owned by the fabric).
	eachPipe := func(f func(p *netem.Pipe)) {
		for _, h := range n.order {
			f(h.up)
			f(h.down)
		}
	}
	pipes := func(stat func(netem.PipeStats) uint64) func() uint64 {
		return func() (v uint64) {
			eachPipe(func(p *netem.Pipe) { v += stat(p.Stats()) })
			return v
		}
	}
	reg.CounterFunc("p2plab_netem_messages_total", "", "Messages accepted by access-link pipes.", pipes(func(st netem.PipeStats) uint64 { return st.Messages }))
	reg.CounterFunc("p2plab_netem_bytes_total", "", "Bytes accepted by access-link pipes.", pipes(func(st netem.PipeStats) uint64 { return st.Bytes }))
	reg.CounterFunc("p2plab_netem_dropped_loss_total", "", "Pipe drops from random loss.", pipes(func(st netem.PipeStats) uint64 { return st.Lost }))
	reg.GaugeFunc("p2plab_netem_backlog_bytes", "", "Bytes queued behind access-link serializers right now.", func() float64 {
		now := n.k.Now()
		var v int64
		eachPipe(func(p *netem.Pipe) { v += p.Backlog(now) })
		return float64(v)
	})
	// Mean lifetime utilization of the bandwidth-limited access pipes:
	// accepted bits over capacity×elapsed, aggregated network-wide.
	reg.GaugeFunc("p2plab_netem_utilization_mean", "", "Accepted bits / (capacity x elapsed) over limited access pipes.", func() float64 {
		now := n.k.Now().Seconds()
		if now <= 0 {
			return 0
		}
		var bits, capacity float64
		eachPipe(func(p *netem.Pipe) {
			if bw := p.Config().Bandwidth; bw > 0 {
				bits += float64(float64(p.Stats().Bytes) * 8)
				capacity += float64(float64(bw) * now)
			}
		})
		if capacity == 0 {
			return 0
		}
		return bits / capacity
	})

	// Flow-solver counters, present only under the flow model.
	if fm := n.flow; fm != nil {
		reg.CounterFunc("p2plab_flow_solves_total", "", "Regions re-solved for the max-min fair share: one per flush, one per churn event at window 0.", func() uint64 { return fm.Stats().Solves })
		reg.CounterFunc("p2plab_flow_solved_flows_total", "", "Flows re-leveled across all re-solves.", func() uint64 { return fm.Stats().SolvedFlows })
		reg.CounterFunc("p2plab_flow_flushes_total", "", "Batch windows drained (window > 0 only).", func() uint64 { return fm.Stats().Flushes })
		reg.CounterFunc("p2plab_flow_batched_total", "", "Churn events coalesced into batches.", func() uint64 { return fm.Stats().Batched })
		reg.CounterFunc("p2plab_flow_started_total", "", "Flows admitted.", func() uint64 { return fm.Stats().Started })
		reg.CounterFunc("p2plab_flow_completed_total", "", "Flows delivered.", func() uint64 { return fm.Stats().Completed })
		reg.GaugeFunc("p2plab_flow_flows_per_solve", "", "Mean flows re-leveled per region re-solve.", func() float64 {
			st := fm.Stats()
			if st.Solves == 0 {
				return 0
			}
			return float64(st.SolvedFlows) / float64(st.Solves)
		})
	}
}
