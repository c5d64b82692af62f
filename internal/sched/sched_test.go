package sched

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func run(t *testing.T, kind Kind, jobs []Job) Result {
	t.Helper()
	return Run(DefaultConfig(kind), jobs)
}

// refaulted reports whether any process paged in more than its own
// working set of mem bytes: it reloaded pages evicted when the run
// exceeded RAM.
func refaulted(res Result, mem int64) bool {
	for _, p := range res.Procs {
		if p.PageIns > mem {
			return true
		}
	}
	return false
}

func spread(times []time.Duration) time.Duration {
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

func TestSingleCPUBoundJob(t *testing.T) {
	for _, kind := range Kinds {
		res := run(t, kind, CPUBoundJobs(1))
		got := res.Procs[0].ExecTime
		// 1.65s work + 40ms batch cost + context switches.
		if got < AckermannWork || got > AckermannWork+60*time.Millisecond {
			t.Errorf("%v: solo exec = %v, want ≈1.69s", kind, got)
		}
		if refaulted(res, 0) {
			t.Errorf("%v: CPU-bound job used swap", kind)
		}
	}
}

func TestFig1ShapeFlatAndDecreasing(t *testing.T) {
	// Per-process execution time must stay within the paper's Fig 1
	// band (≈1.645–1.69 s) and decrease as N grows.
	for _, kind := range Kinds {
		var prev time.Duration = 1<<62 - 1
		for _, n := range []int{1, 10, 100, 500, 1000} {
			res := run(t, kind, CPUBoundJobs(n))
			avg := res.AvgExecTime()
			lo, hi := 1640*time.Millisecond, 1700*time.Millisecond
			if avg < lo || avg > hi {
				t.Errorf("%v N=%d: avg exec = %v, want in [1.64s,1.70s]", kind, n, avg)
			}
			if avg > prev {
				t.Errorf("%v N=%d: avg exec %v increased from %v", kind, n, avg, prev)
			}
			prev = avg
		}
	}
}

func TestFig1NoWallTimeConfusion(t *testing.T) {
	// Wall completion of 1000 concurrent 1.65s jobs on 2 CPUs is
	// ≈825 s; ExecTime must not be that.
	res := run(t, FourBSD, CPUBoundJobs(1000))
	if res.Makespan < 800*time.Second {
		t.Fatalf("makespan = %v, want ≈825s", res.Makespan)
	}
	if res.AvgExecTime() > 2*time.Second {
		t.Fatalf("avg exec = %v, must be CPU time not wall", res.AvgExecTime())
	}
}

func TestFig2BelowRAMAllFlat(t *testing.T) {
	// 10 × 80 MB fits 1.8 GB: no scheduler should swap.
	for _, kind := range Kinds {
		res := run(t, kind, MemoryJobs(10))
		if refaulted(res, MatrixMem) {
			t.Errorf("%v: swap used below RAM", kind)
		}
		avg := res.AvgExecTime()
		// 1.2s work + one initial 80MB page-in (~1.1s at 70MB/s).
		if avg < MatrixWork || avg > 3*time.Second {
			t.Errorf("%v N=10: avg exec = %v", kind, avg)
		}
	}
}

func TestFig2FreeBSDThrashesLinuxDoesNot(t *testing.T) {
	// The paper's key contrast at N=50 (4 GB demanded of a 2 GB box):
	// FreeBSD execution time blows up, Linux 2.6 stays bounded.
	bsd := run(t, FourBSD, MemoryJobs(50))
	ule := run(t, ULE, MemoryJobs(50))
	lin := run(t, LinuxO1, MemoryJobs(50))
	if !refaulted(bsd, MatrixMem) || !refaulted(lin, MatrixMem) {
		t.Fatal("both OSes must hit swap at N=50")
	}
	if bsd.AvgExecTime() < 5*time.Second {
		t.Errorf("4BSD avg exec = %v, want thrashing (>5s)", bsd.AvgExecTime())
	}
	if ule.AvgExecTime() < 5*time.Second {
		t.Errorf("ULE avg exec = %v, want thrashing (>5s)", ule.AvgExecTime())
	}
	if lin.AvgExecTime() > 4*time.Second {
		t.Errorf("Linux avg exec = %v, want bounded (<4s)", lin.AvgExecTime())
	}
	if lin.AvgExecTime() >= bsd.AvgExecTime() {
		t.Errorf("Linux (%v) should beat FreeBSD (%v) under overcommit",
			lin.AvgExecTime(), bsd.AvgExecTime())
	}
}

func TestFig2MonotoneDegradation(t *testing.T) {
	// FreeBSD's execution time grows with N once swapping starts.
	var prev time.Duration
	for _, n := range []int{25, 35, 50} {
		res := run(t, FourBSD, MemoryJobs(n))
		avg := res.AvgExecTime()
		if avg < prev {
			t.Errorf("4BSD avg exec at N=%d (%v) below N-1 step (%v)", n, avg, prev)
		}
		prev = avg
	}
}

func TestFig3FairnessTightFor4BSDAndLinux(t *testing.T) {
	for _, kind := range []Kind{FourBSD, LinuxO1} {
		res := run(t, kind, FairnessJobs(100))
		sp := spread(res.FinishTimes())
		if sp > 5*time.Second {
			t.Errorf("%v finish spread = %v, want tight (<5s)", kind, sp)
		}
		// Centered around 100×5s/2 = 250s.
		if res.Makespan < 245*time.Second || res.Makespan > 260*time.Second {
			t.Errorf("%v makespan = %v, want ≈250s", kind, res.Makespan)
		}
	}
}

func TestFig3ULESpreadWide(t *testing.T) {
	res := run(t, ULE, FairnessJobs(100))
	sp := spread(res.FinishTimes())
	if sp < 20*time.Second {
		t.Errorf("ULE finish spread = %v, want wide (>20s, paper: ~60s)", sp)
	}
	if sp > 90*time.Second {
		t.Errorf("ULE finish spread = %v, too wide", sp)
	}
	bsd := run(t, FourBSD, FairnessJobs(100))
	if sp < 4*spread(bsd.FinishTimes()) {
		t.Errorf("ULE spread (%v) should dwarf 4BSD spread (%v)", sp, spread(bsd.FinishTimes()))
	}
}

func TestWorkConservation(t *testing.T) {
	// The engine never cuts a slice short and 4BSD slices are all one
	// quantum, so a CPU-bound process is scheduled ⌈work/quantum⌉
	// times. Its execution time is its work, one context switch per
	// scheduling and its share of the batch cost (no lost or invented
	// work).
	const n = 50
	res := run(t, FourBSD, CPUBoundJobs(n))
	rounds := (AckermannWork + quantum - 1) / quantum
	want := AckermannWork + rounds*ctxSwitch + batchFixedCost/n
	for i, p := range res.Procs {
		if p.ExecTime != want {
			t.Fatalf("proc %d: exec time = %v, want %v (work %v + %d switches + batch share %v)",
				i, p.ExecTime, want, AckermannWork, rounds, batchFixedCost/n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, kind := range Kinds {
		a := Run(DefaultConfig(kind), FairnessJobs(40))
		b := Run(DefaultConfig(kind), FairnessJobs(40))
		if fmt.Sprint(a.FinishTimes()) != fmt.Sprint(b.FinishTimes()) {
			t.Errorf("%v: runs diverged with identical seed", kind)
		}
	}
}

func TestSeedVariesULE(t *testing.T) {
	cfgA := DefaultConfig(ULE)
	cfgB := DefaultConfig(ULE)
	cfgB.Seed = 99
	a := Run(cfgA, FairnessJobs(40))
	b := Run(cfgB, FairnessJobs(40))
	if fmt.Sprint(a.FinishTimes()) == fmt.Sprint(b.FinishTimes()) {
		t.Error("different seeds should change ULE schedules")
	}
}

func TestAllProcsComplete(t *testing.T) {
	for _, kind := range Kinds {
		res := run(t, kind, MemoryJobs(40))
		if len(res.Procs) != 40 {
			t.Fatalf("%v: %d results, want 40", kind, len(res.Procs))
		}
		for i, p := range res.Procs {
			if p.Finish == 0 {
				t.Errorf("%v: proc %d never finished", kind, i)
			}
		}
	}
}

func TestMakespanEfficiency(t *testing.T) {
	// With 2 CPUs and no memory pressure, makespan must be close to
	// N×W/2 (no CPU left idle while work remains).
	res := run(t, ULE, CPUBoundJobs(100))
	ideal := 100 * AckermannWork / 2
	if res.Makespan > ideal+ideal/10 {
		t.Fatalf("ULE makespan = %v, ideal %v: CPUs idling", res.Makespan, ideal)
	}
}

func TestKindString(t *testing.T) {
	if FourBSD.String() != "4BSD scheduler" || ULE.String() != "ULE scheduler" ||
		LinuxO1.String() != "Linux 2.6" {
		t.Fatal("legend names drifted")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestAvgExecTimeEmpty(t *testing.T) {
	var r Result
	if r.AvgExecTime() != 0 {
		t.Fatal("empty result should average to 0")
	}
}

func TestPageInAccounting(t *testing.T) {
	res := run(t, FourBSD, MemoryJobs(5))
	for i, p := range res.Procs {
		if p.PageIns < MatrixMem {
			t.Fatalf("proc %d paged in %d bytes, want ≥ %d (initial load)", i, p.PageIns, MatrixMem)
		}
	}
}

func TestCVTightFairness(t *testing.T) {
	// Coefficient of variation of 4BSD finishes should be tiny.
	res := run(t, FourBSD, FairnessJobs(100))
	times := res.FinishTimes()
	var sum, sq float64
	for _, v := range times {
		s := v.Seconds()
		sum += s
		sq += s * s
	}
	n := float64(len(times))
	mean := sum / n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if cv > 0.01 {
		t.Fatalf("4BSD fairness CV = %.4f, want <1%%", cv)
	}
}
