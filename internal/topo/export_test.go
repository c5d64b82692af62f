package topo

import (
	"time"

	"repro/internal/ip"
)

// PathLatency returns the modelled one-way latency from src to dst:
// egress access latency + inter-group latency + ingress access latency.
// This is exactly the decomposition of the paper's Fig 7 (e.g. 20 ms +
// 400 ms + 5 ms for 10.1.3.207 → 10.2.2.117).
func (t *Topology) PathLatency(src, dst ip.Addr) time.Duration {
	var total time.Duration
	if g := t.Locate(src); g != nil {
		total += g.Class.Latency
	}
	total += t.GroupLatency(src, dst)
	if g := t.Locate(dst); g != nil {
		total += g.Class.Latency
	}
	return total
}
