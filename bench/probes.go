package main

import (
	"math/rand"
	"time"

	"repro/internal/flow"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The layer probes time one public function of one layer in
// isolation, a fraction of a second each. They explain a move in a
// workload's per-layer CPU share: a change that halves sim.cpu_s on
// snapshot-capped should halve sim.resched_ns and leave the others.

// perOp runs fn, which performs n operations, and returns the cost of
// one in nanoseconds.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func runProbes(l layerCounts) {
	l["sim.timer_ns"] = probeTimer(1000000)
	l["sim.resched_ns"] = probeResched(1000, 200)
	l["sim.handoff_ns"] = probeHandoff(100000)
	l["netem.pipe_ns"] = probePipe(2000000)
	l["flow.churn_ns"] = probeFlowChurn(256, 2000)
	l["trace.add_ns"] = probeTraceAdd(200000)
}

// probeTimer: After plus dispatch, one self-renewing timer chain.
func probeTimer(n int) float64 {
	k := sim.New(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	return perOp(n, func() { mustRun(k) })
}

// probeResched: live events each rescheduled many times before they
// fire — the flow solver's pattern, where every solve moves the
// completion event of every re-rated flow.
func probeResched(events, moves int) float64 {
	k := sim.New(1)
	evs := make([]*sim.Event, events)
	for i := range evs {
		evs[i] = k.At(sim.Time(time.Hour), func() {})
	}
	round := 0
	var step func()
	step = func() {
		round++
		at := sim.Time(time.Hour).Add(time.Duration(round) * time.Second)
		for _, ev := range evs {
			ev.Reschedule(at)
		}
		if round < moves {
			k.After(time.Millisecond, step)
		}
	}
	k.After(time.Millisecond, step)
	return perOp(events*moves, func() { mustRun(k) })
}

// probeHandoff: two simulated tasks ping-pong on a sim.Chan, so every
// operation parks one goroutine and wakes the other.
func probeHandoff(n int) float64 {
	k := sim.New(1)
	ping, pong := sim.NewChan[int](k, 0), sim.NewChan[int](k, 0)
	k.Go("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if ping.Send(p, i) != nil {
				return
			}
			if _, err := pong.Recv(p); err != nil {
				return
			}
		}
		k.Stop()
	})
	k.Go("pong", func(p *sim.Proc) {
		for {
			v, err := ping.Recv(p)
			if err != nil || pong.Send(p, v) != nil {
				return
			}
		}
	})
	return perOp(2*n, func() { mustRun(k) })
}

// probePipe: the pipe model's per-message cost.
func probePipe(n int) float64 {
	k := sim.New(1)
	p := netem.NewPipe(k, "probe", netem.PipeConfig{Bandwidth: netem.Gbps, Delay: time.Millisecond})
	rng := rand.New(rand.NewSource(1))
	at := sim.Time(0)
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			at, _ = p.ScheduleAt(at, 1500, rng)
		}
	})
}

// probeFlowChurn: steady churn of a fixed flow population on one
// shared bottleneck, solved per event (window 0); one operation is a
// departure plus the arrival that replaces it.
func probeFlowChurn(population, n int) float64 {
	k := sim.New(1)
	m := flow.NewWithConfig(k, flow.Config{})
	link := netem.NewPipe(k, "probe", netem.PipeConfig{Bandwidth: 100 * netem.Mbps})
	rng := rand.New(rand.NewSource(1))
	completed := 0
	var spawn func()
	spawn = func() {
		size := 32*1024 + rng.Intn(256*1024)
		m.Transfer(k.Now(), size, []*netem.Pipe{link}, rng, func(sim.Time, bool) {
			completed++
			if completed < n {
				spawn()
			} else {
				k.Stop()
			}
		})
	}
	for i := 0; i < population; i++ {
		spawn()
	}
	return perOp(n, func() { mustRun(k) })
}

// probeTraceAdd: one formatted trace event.
func probeTraceAdd(n int) float64 {
	lg := trace.New(0)
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			lg.Add(sim.Time(i), "net.send", "10.0.0.1", "msg %d to %s (%d bytes)", i, "10.0.0.2", 1500)
		}
	})
}

// mustRun runs a probe kernel; a probe that deadlocks is a bug in the
// probe, not an outcome to report.
func mustRun(k *sim.Kernel) {
	if err := k.Run(); err != nil {
		panic("bench probe: " + err.Error())
	}
}
