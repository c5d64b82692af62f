package sched

import (
	"testing"
	"testing/quick"
	"time"
)

func TestMakespanLowerBoundProperty(t *testing.T) {
	// For any CPU-bound job set, makespan ≥ total work / CPUs and every
	// finish time is within the makespan.
	f := func(worksRaw []uint16, kindRaw uint8) bool {
		if len(worksRaw) == 0 || len(worksRaw) > 60 {
			return true
		}
		kind := Kinds[int(kindRaw)%len(Kinds)]
		cfg := DefaultConfig(kind)
		var jobs []Job
		var total time.Duration
		for _, w := range worksRaw {
			work := time.Duration(w%2000+1) * time.Millisecond
			jobs = append(jobs, Job{Work: work})
			total += work
		}
		res := Run(cfg, jobs)
		if res.Makespan < total/cpus {
			return false
		}
		for _, p := range res.Procs {
			if p.Finish > res.Makespan || p.Finish <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExecTimeAtLeastWorkProperty(t *testing.T) {
	// ExecTime can never be below the requested work (no stolen CPU).
	f := func(worksRaw []uint16, kindRaw uint8) bool {
		if len(worksRaw) == 0 || len(worksRaw) > 40 {
			return true
		}
		kind := Kinds[int(kindRaw)%len(Kinds)]
		var jobs []Job
		for _, w := range worksRaw {
			jobs = append(jobs, Job{Work: time.Duration(w%2000+1) * time.Millisecond})
		}
		res := Run(DefaultConfig(kind), jobs)
		for i, p := range res.Procs {
			if p.ExecTime < jobs[i].Work {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapTokenAblation(t *testing.T) {
	// Mechanism check: Linux's bounded Fig 2 behaviour comes from the
	// swap token. Disabling it (TokenHold = 0, the pre-2.6.9 VM) makes
	// Linux thrash like FreeBSD.
	with := DefaultConfig(LinuxO1)
	without := DefaultConfig(LinuxO1)
	without.TokenHold = 0
	resWith := Run(with, MemoryJobs(50))
	resWithout := Run(without, MemoryJobs(50))
	if resWith.AvgExecTime() > 4*time.Second {
		t.Fatalf("with token: %v, want bounded", resWith.AvgExecTime())
	}
	if resWithout.AvgExecTime() < 2*resWith.AvgExecTime() {
		t.Fatalf("without token: %v, want thrashing well above %v",
			resWithout.AvgExecTime(), resWith.AvgExecTime())
	}
}

func TestULEJitterAblation(t *testing.T) {
	// Mechanism check: ULE's wide fairness CDF comes from the slice
	// jitter + per-CPU queues. Zeroing the jitter and using global
	// queue behaviour is not possible directly, but zero jitter alone
	// must shrink the spread substantially.
	noisy := DefaultConfig(ULE)
	quiet := DefaultConfig(ULE)
	quiet.ULESliceJitter = 0
	spreadOf := func(cfg Config) time.Duration {
		res := Run(cfg, FairnessJobs(100))
		times := res.FinishTimes()
		min, max := times[0], times[0]
		for _, v := range times {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max - min
	}
	n, q := spreadOf(noisy), spreadOf(quiet)
	if q >= n {
		t.Fatalf("zero jitter spread %v should be below jittered %v", q, n)
	}
}
