package sched

import "time"

// queue abstracts the run-queue structure of each scheduler kind.
type queue interface {
	// get removes and returns the next process to run on cpu, or nil
	// when none is available to it right now.
	get(cpu int, now time.Duration) *proc
	// put re-inserts a preempted (or skipped) process.
	put(p *proc)
	// len reports how many processes cpu could currently reach.
	len(cpu int) int
}

// newQueue builds the run-queue structure for the configured scheduler.
func newQueue(kind Kind, procs []*proc) queue {
	switch kind {
	case ULE:
		q := &uleQueue{
			perCPU:      make([][]*proc, cpus),
			lastBalance: make([]time.Duration, cpus),
		}
		for _, p := range procs {
			q.perCPU[p.home] = append(q.perCPU[p.home], p)
		}
		return q
	default: // FourBSD and LinuxO1: one global round-robin queue
		q := &globalQueue{}
		for _, p := range procs {
			q.q = append(q.q, p)
		}
		return q
	}
}

// globalQueue models the single shared run queue of 4BSD (and, for
// identical CPU-bound processes, the effectively fair behaviour of the
// Linux O(1) scheduler): strict round-robin, perfect fairness.
type globalQueue struct {
	q []*proc
}

func (g *globalQueue) get(_ int, _ time.Duration) *proc {
	if len(g.q) == 0 {
		return nil
	}
	p := g.q[0]
	copy(g.q, g.q[1:])
	g.q = g.q[:len(g.q)-1]
	return p
}

func (g *globalQueue) put(p *proc)   { g.q = append(g.q, p) }
func (g *globalQueue) len(_ int) int { return len(g.q) }

// uleQueue models ULE's per-CPU run queues: processes stay on their
// home CPU (affinity) and an idle CPU steals from the longest queue at
// most once per balance interval. Combined with the per-process
// effective-slice jitter (interactivity scoring), this reproduces the
// wide fairness CDF the paper measures for ULE in Fig 3.
type uleQueue struct {
	perCPU      [][]*proc
	lastBalance []time.Duration
}

func (u *uleQueue) get(cpu int, now time.Duration) *proc {
	q := u.perCPU[cpu]
	if len(q) > 0 {
		p := q[0]
		copy(q, q[1:])
		u.perCPU[cpu] = q[:len(q)-1]
		return p
	}
	// Idle: steal from the longest queue, rate-limited.
	if now-u.lastBalance[cpu] < uleBalanceInterval && u.lastBalance[cpu] != 0 {
		return nil
	}
	u.lastBalance[cpu] = now
	busiest, max := -1, 1 // only steal from queues with ≥2 entries
	for i, oq := range u.perCPU {
		if len(oq) > max {
			busiest, max = i, len(oq)
		}
	}
	if busiest < 0 {
		// Last resort: take a lone entry so work never strands.
		for i, oq := range u.perCPU {
			if len(oq) > 0 {
				busiest = i
				break
			}
		}
		if busiest < 0 {
			return nil
		}
	}
	oq := u.perCPU[busiest]
	p := oq[len(oq)-1] // steal from the tail (coldest)
	u.perCPU[busiest] = oq[:len(oq)-1]
	p.home = cpu
	return p
}

func (u *uleQueue) put(p *proc) {
	u.perCPU[p.home] = append(u.perCPU[p.home], p)
}

func (u *uleQueue) len(cpu int) int {
	n := 0
	for _, q := range u.perCPU {
		n += len(q)
	}
	return n
}
