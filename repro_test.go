package repro

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/ip"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestLabSimpleNodes(t *testing.T) {
	lab, err := NewLab(LabConfig{Seed: 1, Nodes: 2, Class: topo.DSL})
	if err != nil {
		t.Fatal(err)
	}
	if len(lab.Hosts) != 2 {
		t.Fatalf("hosts = %d", len(lab.Hosts))
	}
	var rtt time.Duration
	var ok bool
	lab.Go("pinger", func(p *sim.Proc) {
		rtt, ok = lab.Host(0).Ping(p, lab.Host(1).Addr(), 56, time.Second)
	})
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ping lost")
	}
	// 4 × 30 ms DSL latency plus serialization.
	if rtt < 120*time.Millisecond || rtt > 140*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestLabWithTopology(t *testing.T) {
	lab, err := NewLab(LabConfig{Seed: 1, Topology: topo.Fig7()})
	if err != nil {
		t.Fatal(err)
	}
	if len(lab.Hosts) != 2750 {
		t.Fatalf("hosts = %d", len(lab.Hosts))
	}
	src := lab.Net.Host(ip.MustParseAddr("10.1.3.207"))
	var rtt time.Duration
	lab.Go("pinger", func(p *sim.Proc) {
		rtt, _ = src.Ping(p, ip.MustParseAddr("10.2.2.117"), 56, 5*time.Second)
	})
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt < 850*time.Millisecond || rtt > 860*time.Millisecond {
		t.Fatalf("rtt = %v, want ≈853ms", rtt)
	}
}

func TestLabWithCluster(t *testing.T) {
	lab, err := NewLab(LabConfig{Seed: 1, Nodes: 20, Folding: 10})
	if err != nil {
		t.Fatal(err)
	}
	if lab.Cluster == nil {
		t.Fatal("cluster missing")
	}
	if lab.Cluster.FoldingRatio() != 10 {
		t.Fatalf("folding = %v", lab.Cluster.FoldingRatio())
	}
}

func TestLabRunFor(t *testing.T) {
	lab, err := NewLab(LabConfig{Seed: 1, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	lab.Go("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	if err := lab.RunFor(5500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestLabHostPanicsOutOfRange(t *testing.T) {
	lab, _ := NewLab(LabConfig{Seed: 1, Nodes: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	lab.Host(5)
}

func TestFacadeSchedulerRun(t *testing.T) {
	res := sched.Run(sched.DefaultConfig(sched.FourBSD), sched.CPUBoundJobs(10))
	if len(res.Procs) != 10 {
		t.Fatalf("procs = %d", len(res.Procs))
	}
}

func TestFacadeSwarmRun(t *testing.T) {
	sp := exp.ScaleSpec(exp.Fig8Spec(), 20)
	sp.Workload.StartInterval = scenario.Duration(2 * time.Second)
	res, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != res.Total {
		t.Fatalf("swarm incomplete: %d/%d", res.Done, res.Total)
	}
}

func TestFacadeBindOverhead(t *testing.T) {
	res, err := exp.BindOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plain >= res.Intercepted {
		t.Fatal("interception must cost something")
	}
}
