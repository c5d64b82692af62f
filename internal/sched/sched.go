// Package sched simulates the operating-system schedulers the paper
// evaluates in "Suitability of FreeBSD" (Figs 1–3): FreeBSD's classic
// 4BSD scheduler, FreeBSD's ULE scheduler, and Linux 2.6's O(1)
// scheduler, together with a paged-memory model that reproduces the
// swap-thrashing difference between FreeBSD and Linux.
//
// Metrics follow the paper's measurements:
//
//   - ExecTime (Figs 1 and 2) is the time a process spent executing or
//     servicing page faults — CPU time plus fault service, excluding
//     runnable-queue wait. (With 1000 concurrent processes the paper
//     still reports ≈1.65 s per process, so the metric cannot be wall
//     time.)
//   - Finish (Fig 3) is the wall-clock completion instant, whose
//     distribution over identical processes measures fairness.
//
// The memory model captures the paper's Fig 2 contrast mechanically:
// when the aggregate working set exceeds RAM, FreeBSD processes page
// back in whatever was evicted every time they are scheduled
// (thrashing), while Linux 2.6's swap-token mechanism admits one
// faulting process at a time and protects its pages, bounding fault
// service per process.
package sched

import (
	"fmt"
	"time"
)

// Kind selects the scheduler discipline.
type Kind int

const (
	// FourBSD is FreeBSD's classic scheduler: one global run queue,
	// priority decay, round-robin time slices.
	FourBSD Kind = iota
	// ULE is FreeBSD 6's ULE scheduler: per-CPU run queues with
	// affinity, interactivity scoring (which perturbs effective slices)
	// and idle stealing. Fig 3 shows its fairness spread.
	ULE
	// LinuxO1 is Linux 2.6's O(1) scheduler with the swap-token
	// anti-thrashing mechanism in the VM.
	LinuxO1
)

// String names the scheduler like the paper's figure legends.
func (k Kind) String() string {
	switch k {
	case FourBSD:
		return "4BSD scheduler"
	case ULE:
		return "ULE scheduler"
	case LinuxO1:
		return "Linux 2.6"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists all scheduler disciplines, in the paper's legend order.
var Kinds = []Kind{ULE, FourBSD, LinuxO1}

// Job describes one process to run.
type Job struct {
	// Work is the pure CPU time the job needs (its solo execution time
	// on an idle machine, excluding paging).
	Work time.Duration
	// Mem is the working-set size in bytes (0 for CPU-only jobs like
	// Fig 1's Ackermann computation).
	Mem int64
}

// Config selects the scheduler and its tunables on the simulated
// machine. The zero value is unusable; start from DefaultConfig.
type Config struct {
	Kind Kind
	// ULESliceJitter is the relative spread of per-process effective
	// slices under ULE (interactivity-score noise); it drives Fig 3's
	// wide ULE CDF. Ignored by other schedulers.
	ULESliceJitter float64
	// TokenHold is how long the Linux swap token protects a faulting
	// process's pages. Zero disables the token (pre-2.6.9 behaviour).
	TokenHold time.Duration
	// Seed drives the deterministic random source.
	Seed int64
}

// DefaultConfig returns the paper's settings for the given scheduler.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:           kind,
		ULESliceJitter: 0.20,
		TokenHold:      2 * time.Second,
		Seed:           1,
	}
}

// The simulated machine is a GridExplorer node: 2 CPUs, 2 GB RAM
// (minus ~200 MB OS reserve), a single disk for swap.
const (
	// cpus is the processor count (GridExplorer nodes: dual Opteron).
	cpus = 2
	// ram is physical memory available to jobs, after OS reserve.
	ram = 1_800_000_000
	// diskBytesPerSec is the swap device throughput (page reloads).
	diskBytesPerSec = 100_000_000
	// ramTouchBytesPerSec is the zero-fill/allocation rate for the first
	// build of a working set (not a disk transfer).
	ramTouchBytesPerSec = 2_000_000_000
	// quantum is the base time slice.
	quantum = 100 * time.Millisecond
	// ctxSwitch is the CPU cost of one context switch, charged to the
	// incoming process's execution time.
	ctxSwitch = 5 * time.Microsecond
	// batchFixedCost is a per-experiment fixed cost (loader, shared
	// page warm-up) amortized over the batch: each process's ExecTime
	// includes batchFixedCost/N. This reproduces Fig 1's slight
	// *decrease* of per-process time at high process counts.
	batchFixedCost = 40 * time.Millisecond
	// uleBalanceInterval is how often an idle ULE CPU steals work.
	uleBalanceInterval = 30 * time.Second
)

// ProcStat reports one process's outcome.
type ProcStat struct {
	Finish   time.Duration // wall-clock completion (Fig 3 metric)
	ExecTime time.Duration // CPU + fault service (Figs 1–2 metric)
	PageIns  int64         // bytes paged in over the process lifetime
}

// Result is the outcome of one Run.
type Result struct {
	Procs    []ProcStat
	Makespan time.Duration
}

// AvgExecTime returns the mean per-process execution time — the y-axis
// of Figs 1 and 2.
func (r *Result) AvgExecTime() time.Duration {
	if len(r.Procs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, p := range r.Procs {
		sum += p.ExecTime
	}
	return sum / time.Duration(len(r.Procs))
}

// FinishTimes returns the wall-clock completion times — the sample
// behind Fig 3's CDFs.
func (r *Result) FinishTimes() []time.Duration {
	out := make([]time.Duration, len(r.Procs))
	for i, p := range r.Procs {
		out[i] = p.Finish
	}
	return out
}
