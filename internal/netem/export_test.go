package netem

import (
	"repro/internal/ip"
	"repro/internal/sim"
)

// Utilization returns the fraction of the interval [from, to] during
// which the serializer was busy, computed from the bytes accepted over
// the interval: prev must be the Stats snapshot taken at instant from
// (the zero PipeStats for the start of the run). It is an aggregate
// measure, not a per-instant one. Taking the snapshot as an argument
// rather than lifetime counters is what lets per-phase callers report
// each interval's own traffic instead of everything since boot.
func (p *Pipe) Utilization(prev PipeStats, from, to sim.Time) float64 {
	if p.cfg.Bandwidth <= 0 || to <= from {
		return 0
	}
	sent := float64(p.stats.Bytes-prev.Bytes) * 8
	capacity := float64(p.cfg.Bandwidth) * to.Sub(from).Seconds()
	u := sent / capacity
	if u > 1 {
		u = 1
	}
	return u
}

// AddPipe appends a pipe rule with the next free ID.
func (rs *RuleSet) AddPipe(src, dst ip.Prefix, pipe *Pipe) {
	rs.Add(Rule{ID: rs.NextID(), Src: src, Dst: dst, Action: ActionPipe, Pipe: pipe})
}

// AddDeny appends a deny rule with the next free ID and returns a
// handle pinning exactly that rule (for RemoveHandle).
func (rs *RuleSet) AddDeny(src, dst ip.Prefix) RuleHandle {
	return rs.AddHandle(Rule{ID: rs.NextID(), Src: src, Dst: dst, Action: ActionDeny})
}

// Rules returns the rules in evaluation order. The slice is shared; do
// not mutate it.
func (rs *RuleSet) Rules() []Rule { return rs.rules }
