package obs

import (
	"time"

	"repro/internal/sim"
)

// Sampler snapshots a registry at fixed virtual-time boundaries: a
// self-rescheduling kernel event that runs the snapshot callback every
// interval of *simulated* time. Because the callback takes no RNG
// draws, writes no trace records and wakes no tasks, its presence in
// the event queue does not perturb the dispatch order of any other
// event — instrumented runs stay byte-identical to bare ones (the
// trace-neutrality property test in internal/scenario).
//
// The sampler keeps rescheduling itself until the run ends, so it must
// only be attached to workloads that terminate via Kernel.Stop or
// RunUntil — a run that waits for an empty event queue would never see
// one. Every scenario workload stops the kernel explicitly, so this
// holds throughout the repo.
type Sampler struct {
	stopped bool
	ev      *sim.Event
}

// StartSampler arranges for fn(now, registry.Snapshot()) to run every
// interval of virtual time on kernel k, starting one interval from now.
// fn executes in kernel context: it may read kernel state but must not
// block. Returns nil (a valid no-op Sampler) when the interval or fn
// is unset.
func StartSampler(k *sim.Kernel, reg *Registry, interval time.Duration, fn func(at sim.Time, snap *Snapshot)) *Sampler {
	if interval <= 0 || fn == nil {
		return nil
	}
	s := &Sampler{}
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		fn(k.Now(), reg.Snapshot())
		s.ev = k.After(interval, tick)
	}
	s.ev = k.After(interval, tick)
	return s
}

// Stop cancels future samples. Safe on nil.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopped = true
	s.ev.Cancel()
}
