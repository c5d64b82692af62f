package repro

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// assemble builds a platform the way user code does: a topology on
// scenario.Assemble, at the given folding.
func assemble(t *testing.T, tp *topo.Topology, folding int) *scenario.Assembly {
	t.Helper()
	a, err := scenario.Assemble(1, tp, vnet.DefaultConfig(), folding)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLabWithTopology(t *testing.T) {
	a := assemble(t, topo.Fig7(), 0)
	if len(a.Hosts) != 2750 {
		t.Fatalf("hosts = %d", len(a.Hosts))
	}
	src := a.Net.Host(ip.MustParseAddr("10.1.3.207"))
	var rtt time.Duration
	a.Kernel.Go("pinger", func(p *sim.Proc) {
		rtt, _ = src.Ping(p, ip.MustParseAddr("10.2.2.117"), 56, 5*time.Second)
	})
	if err := a.Kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt < 850*time.Millisecond || rtt > 860*time.Millisecond {
		t.Fatalf("rtt = %v, want ≈853ms", rtt)
	}
}

func TestLabWithCluster(t *testing.T) {
	a := assemble(t, topo.Uniform(20, topo.DSL), 10)
	if a.Cluster == nil {
		t.Fatal("cluster missing")
	}
	if a.Cluster.FoldingRatio() != 10 {
		t.Fatalf("folding = %v", a.Cluster.FoldingRatio())
	}
}

func TestLabRunFor(t *testing.T) {
	a := assemble(t, topo.Uniform(1, topo.DSL), 0)
	ticks := 0
	a.Kernel.Go("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	a.Kernel.At(sim.Time(5500*time.Millisecond), a.Kernel.Stop)
	if err := a.Kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestFacadeSchedulerRun(t *testing.T) {
	res := sched.Run(sched.DefaultConfig(sched.FourBSD), sched.CPUBoundJobs(10))
	if len(res.Procs) != 10 {
		t.Fatalf("procs = %d", len(res.Procs))
	}
}
