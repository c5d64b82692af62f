package exp

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// Fig1Counts is the paper's x-axis sample for Fig 1 (1..1000 processes):
// the peers axis of the sched grid whose cells' exec-avg-s/<scheduler>
// values are the figure's curves.
var Fig1Counts = []int{1, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

// Fig2Counts is the paper's x-axis for Fig 2 (5..50 memory-intensive
// processes).
var Fig2Counts = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

// Fig2 measures average per-process execution time for CPU- and
// memory-intensive processes over Fig2Counts: FreeBSD degrades sharply
// once swap engages, Linux 2.6 stays bounded.
func Fig2(seed int64) []*metrics.Series {
	var out []*metrics.Series
	for _, kind := range sched.Kinds {
		s := &metrics.Series{Name: kind.String()}
		for _, n := range Fig2Counts {
			cfg := sched.DefaultConfig(kind)
			cfg.Seed = seed
			res := sched.Run(cfg, sched.MemoryJobs(n))
			s.Add(float64(n), res.AvgExecTime().Seconds())
		}
		out = append(out, s)
	}
	return out
}

// Fig3 runs 100 identical 5-second processes under each scheduler and
// returns the CDFs of their completion times (the fairness figure).
func Fig3(seed int64) []*metrics.Series {
	const n = 100
	var out []*metrics.Series
	for _, kind := range sched.Kinds {
		cfg := sched.DefaultConfig(kind)
		cfg.Seed = seed
		res := sched.Run(cfg, sched.FairnessJobs(n))
		samples := make([]float64, 0, n)
		for _, ft := range res.FinishTimes() {
			samples = append(samples, ft.Seconds())
		}
		cdf := metrics.CDF(samples)
		cdf.Name = kind.String()
		out = append(out, &cdf)
	}
	return out
}

// BindOverheadResult reports the libc-interception microbenchmark
// (the Virtualization section's 10.22 µs vs 10.79 µs).
type BindOverheadResult struct {
	Plain       time.Duration // connect/close cycle, unmodified libc
	Intercepted time.Duration // with BINDIP getenv+bind preamble
}

// Overhead returns the added cost per cycle.
func (r BindOverheadResult) Overhead() time.Duration { return r.Intercepted - r.Plain }

// BindOverhead measures the emulated syscall cost of one local TCP
// connect/disconnect cycle with and without the BINDIP interception.
func BindOverhead() (BindOverheadResult, error) {
	cycle := func(intercept bool) (time.Duration, error) {
		// Two hosts on unconstrained links: only syscall costs accrue.
		a, err := scenario.Assemble(1, topo.Uniform(2, topo.LinkClass{}), vnet.DefaultConfig(), 0)
		if err != nil {
			return 0, err
		}
		k, client, server := a.Kernel, a.Hosts[0], a.Hosts[1]
		if intercept {
			client.SetBindEnv(client.Addr())
		}
		k.Go("server", func(p *sim.Proc) {
			l, err := server.Listen(p, 80)
			if err != nil {
				return
			}
			for {
				if _, err := l.Accept(p); err != nil {
					return
				}
			}
		})
		k.Go("client", func(p *sim.Proc) {
			p.Yield()
			c, err := client.Dial(p, ip.Endpoint{Addr: server.Addr(), Port: 80})
			if err != nil {
				return
			}
			c.Close(p)
			k.Stop()
		})
		if err := k.Run(); err != nil {
			return 0, err
		}
		return client.Meter().Total, nil
	}
	var res BindOverheadResult
	var err error
	if res.Plain, err = cycle(false); err != nil {
		return res, err
	}
	if res.Intercepted, err = cycle(true); err != nil {
		return res, err
	}
	return res, nil
}

// Fig6Counts is the paper's x-axis for Fig 6 (0..50000 firewall
// rules): the rules axis of the ping grid whose cells' rtt-*-ms values
// are the figure's curves.
var Fig6Counts = []int{0, 5000, 10000, 15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000}

// Fig7Result reports the topology-latency check around the paper's
// worked example (853 ms measured between 10.1.3.207 and 10.2.2.117).
type Fig7Result struct {
	RTT      time.Duration
	ModelRTT time.Duration // 850 ms: 2×(egress+group+ingress)
	Overhead time.Duration // emulation overhead beyond the model
	Hosts    int
}

// Fig7 builds the full Fig 7 topology (2750 nodes in 5 groups over 3
// regions) on a physical cluster of 14 machines, then measures the
// paper's worked example with ping.
func Fig7(seed int64) (Fig7Result, error) {
	const physNodes = 14
	tp := topo.Fig7()
	// Folded as a spec folds: the machine count follows from the nodes
	// and the folding.
	a, err := scenario.Assemble(seed, tp, vnet.DefaultConfig(), (tp.TotalNodes()+physNodes-1)/physNodes)
	if err != nil {
		return Fig7Result{}, err
	}
	k := a.Kernel
	src := a.Net.Host(ip.MustParseAddr("10.1.3.207"))
	dst := a.Net.Host(ip.MustParseAddr("10.2.2.117"))
	if src == nil || dst == nil {
		return Fig7Result{}, fmt.Errorf("exp: fig7 endpoints missing")
	}
	res := Fig7Result{
		ModelRTT: 850 * time.Millisecond,
		Hosts:    len(a.Hosts),
	}
	var ok bool
	k.Go("pinger", func(p *sim.Proc) {
		var rtt time.Duration
		rtt, ok = src.Ping(p, dst.Addr(), vnet.DefaultPingSize, 10*time.Second)
		res.RTT = rtt
		k.Stop()
	})
	if err := k.Run(); err != nil {
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("exp: fig7 ping lost")
	}
	res.Overhead = res.RTT - res.ModelRTT
	return res, nil
}

// Fig9Foldings is the paper's folding sweep: 1, 10, 20, 40 and 80
// clients per physical node, one Fig8Spec run and TotalReceivedSeries
// each. The curves coincide ("results are nearly identical ... even
// with 80 virtual nodes on each physical node").
var Fig9Foldings = []int{1, 10, 20, 40, 80}
