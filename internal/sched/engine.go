package sched

import (
	"math/rand"
	"time"
)

// proc is the engine-side state of one simulated process.
type proc struct {
	remaining time.Duration
	mem       int64
	resident  int64
	lastRun   time.Duration
	slice     time.Duration // effective quantum for this process
	home      int           // ULE home CPU
	done      bool
	stat      ProcStat
}

// cpuEvent orders scheduler decision points. requeue carries the proc
// whose slice ends at this instant: it must not be visible to other
// CPUs before then (requeueing it at dispatch time would let another
// CPU run it concurrently with its own slice).
type cpuEvent struct {
	at      time.Duration
	cpu     int
	requeue *proc
}

// engine drives one simulation run.
type engine struct {
	cfg   Config
	rng   *rand.Rand
	procs []*proc
	sched queue

	residentTotal int64
	running       []*proc // per CPU, nil when idle

	// Linux swap token.
	tokenHolder   *proc
	tokenAcquired time.Duration
}

// Run simulates the jobs under the configured scheduler and returns the
// per-process statistics. All processes start at time zero (the paper
// starts instances simultaneously from a high-priority launcher).
func Run(cfg Config, jobs []Job) Result {
	e := &engine{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		running: make([]*proc, cpus),
	}
	for i, j := range jobs {
		p := &proc{
			remaining: j.Work,
			mem:       j.Mem,
			slice:     quantum,
			home:      i % cpus,
		}
		if cfg.Kind == ULE && cfg.ULESliceJitter > 0 {
			f := 1 + cfg.ULESliceJitter*(2*e.rng.Float64()-1)
			p.slice = time.Duration(float64(quantum) * f)
			p.home = e.rng.Intn(cpus)
		}
		e.procs = append(e.procs, p)
	}
	e.sched = newQueue(cfg.Kind, e.procs)
	e.loop()

	var res Result
	n := time.Duration(len(jobs))
	for _, p := range e.procs {
		if n > 0 {
			amortized := batchFixedCost / n
			p.stat.ExecTime += amortized
		}
		res.Procs = append(res.Procs, p.stat)
		if p.stat.Finish > res.Makespan {
			res.Makespan = p.stat.Finish
		}
	}
	return res
}

// idleRecheck is how long an idle CPU waits before re-inspecting the
// queues (all runnable processes blocked on the swap token).
const idleRecheck = 10 * time.Millisecond

func (e *engine) loop() {
	// Each CPU has exactly one pending decision point: popping one
	// always schedules the next for the same CPU. So the event queue is
	// one slot per CPU, and the next event is the earliest slot, the
	// lower CPU first on a tie.
	var pending [cpus]cpuEvent
	for cpu := range pending {
		pending[cpu] = cpuEvent{at: 0, cpu: cpu}
	}
	remaining := len(e.procs)
	for remaining > 0 {
		ev := pending[0]
		for _, c := range pending[1:] {
			if c.at < ev.at {
				ev = c
			}
		}
		e.running[ev.cpu] = nil
		if ev.requeue != nil {
			e.sched.put(ev.requeue)
		}
		p := e.pick(ev.cpu, ev.at)
		if p == nil {
			pending[ev.cpu] = cpuEvent{at: ev.at + idleRecheck, cpu: ev.cpu}
			continue
		}
		t := ev.at
		e.running[ev.cpu] = p
		p.stat.ExecTime += ctxSwitch
		t += ctxSwitch

		// Service the page-fault backlog before computing.
		if deficit := p.mem - p.resident; deficit > 0 {
			dt := e.pageIn(p, deficit, t)
			p.stat.ExecTime += dt
			t += dt
		}

		run := p.slice
		if p.remaining < run {
			run = p.remaining
		}
		t += run
		p.remaining -= run
		p.stat.ExecTime += run
		p.lastRun = t

		if p.remaining <= 0 {
			p.done = true
			p.stat.Finish = t
			e.residentTotal -= p.resident
			p.resident = 0
			if e.tokenHolder == p {
				e.tokenHolder = nil
			}
			remaining--
			pending[ev.cpu] = cpuEvent{at: t, cpu: ev.cpu}
		} else {
			// The proc stays invisible to other CPUs until its slice
			// ends; it rejoins the queue when this event pops.
			pending[ev.cpu] = cpuEvent{at: t, cpu: ev.cpu, requeue: p}
		}
	}
}

// pick selects the next process for a CPU, honoring the Linux swap
// token: when memory is overcommitted and the token is held, faulting
// processes are passed over in favor of resident ones.
func (e *engine) pick(cpu int, now time.Duration) *proc {
	var skipped []*proc
	defer func() {
		for _, s := range skipped {
			e.sched.put(s)
		}
	}()
	limit := e.sched.len(cpu) + 1
	for i := 0; i < limit; i++ {
		p := e.sched.get(cpu, now)
		if p == nil {
			return nil
		}
		// The swap token gates refaults (reloads of evicted pages), not
		// first-touch allocation: a process that has never paged before
		// is building its working set, not thrashing.
		if e.cfg.Kind == LinuxO1 && e.cfg.TokenHold > 0 &&
			p.mem > p.resident && p.stat.PageIns > 0 {
			if e.tokenHolder != nil && e.tokenHolder != p &&
				now-e.tokenAcquired < e.cfg.TokenHold {
				skipped = append(skipped, p)
				continue
			}
			e.tokenHolder = p
			e.tokenAcquired = now
		}
		return p
	}
	return nil
}

// pageIn services a process's missing pages, evicting from other
// processes if needed, and returns the service time. The first build of
// the working set is allocation (zero-fill at RAM speed); only reloads
// of previously evicted pages come from the swap disk.
func (e *engine) pageIn(p *proc, deficit int64, now time.Duration) time.Duration {
	free := ram - e.residentTotal
	if free < deficit {
		e.evict(deficit-free, p)
	}
	firstTouch := p.stat.PageIns == 0
	p.resident += deficit
	e.residentTotal += deficit
	p.stat.PageIns += deficit
	rate := diskBytesPerSec
	if firstTouch {
		rate = ramTouchBytesPerSec
	}
	return time.Duration(float64(deficit) / float64(rate) * float64(time.Second))
}

// evict reclaims want bytes, spreading the reclaim across all eligible
// processes proportionally to their resident sizes — the behaviour of a
// page daemon scanning one global page LRU, where every process's pages
// are interleaved. (Evicting whole victims in LRU order would hit the
// classic round-robin+LRU pathology: always evicting exactly the next
// process to run, which turns mild overcommit into a full-reload cliff
// the paper's gradual Fig 2 curves do not show.)
func (e *engine) evict(want int64, beneficiary *proc) {
	var victims []*proc
	var evictable int64
	for _, cand := range e.procs {
		if cand == beneficiary || cand.done || cand.resident == 0 {
			continue
		}
		if cand == e.tokenHolder {
			continue
		}
		if e.onCPU(cand) {
			continue
		}
		victims = append(victims, cand)
		evictable += cand.resident
	}
	if evictable == 0 {
		return // nothing evictable; model allows transient overcommit
	}
	if want > evictable {
		want = evictable
	}
	remaining := want
	for _, v := range victims {
		take := int64(float64(want) * float64(v.resident) / float64(evictable))
		if take > v.resident {
			take = v.resident
		}
		if take > remaining {
			take = remaining
		}
		v.resident -= take
		e.residentTotal -= take
		remaining -= take
	}
	// Rounding leftovers: take from the least recently run.
	for remaining > 0 {
		var victim *proc
		for _, v := range victims {
			if v.resident == 0 {
				continue
			}
			if victim == nil || v.lastRun < victim.lastRun {
				victim = v
			}
		}
		if victim == nil {
			return
		}
		take := victim.resident
		if take > remaining {
			take = remaining
		}
		victim.resident -= take
		e.residentTotal -= take
		remaining -= take
	}
}

func (e *engine) onCPU(p *proc) bool {
	for _, r := range e.running {
		if r == p {
			return true
		}
	}
	return false
}
