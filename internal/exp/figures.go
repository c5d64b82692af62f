package exp

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// Fig1Counts is the paper's x-axis sample for Fig 1 (1..1000 processes).
var Fig1Counts = []int{1, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

// Fig1 measures average per-process execution time for CPU-bound,
// non-memory-intensive processes under each scheduler.
func Fig1(counts []int, seed int64) []*metrics.Series {
	if counts == nil {
		counts = Fig1Counts
	}
	var out []*metrics.Series
	for _, kind := range sched.Kinds {
		s := &metrics.Series{Name: kind.String()}
		for _, n := range counts {
			cfg := sched.DefaultConfig(kind)
			cfg.Seed = seed
			res := sched.Run(cfg, sched.CPUBoundJobs(n))
			s.Add(float64(n), res.AvgExecTime().Seconds())
		}
		out = append(out, s)
	}
	return out
}

// Fig2Counts is the paper's x-axis for Fig 2 (5..50 memory-intensive
// processes).
var Fig2Counts = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

// Fig2 measures average per-process execution time for CPU- and
// memory-intensive processes: FreeBSD degrades sharply once swap
// engages, Linux 2.6 stays bounded.
func Fig2(counts []int, seed int64) []*metrics.Series {
	if counts == nil {
		counts = Fig2Counts
	}
	var out []*metrics.Series
	for _, kind := range sched.Kinds {
		s := &metrics.Series{Name: kind.String()}
		for _, n := range counts {
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
func Fig3(n int, seed int64) []*metrics.Series {
	if n <= 0 {
		n = 100
	}
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

// Fig6Counts is the paper's x-axis for Fig 6 (0..50000 firewall rules).
var Fig6Counts = []int{0, 5000, 10000, 15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000}

// Fig6Point is one measurement of Fig 6.
type Fig6Point struct {
	Rules int
	Stats vnet.PingStats
}

// Fig6 measures ping round-trip time between two virtual nodes on two
// physical nodes while the first node's firewall table grows: the RTT
// rises linearly because IPFW evaluates rules linearly. With
// netem.ClassifierIndexed the same sweep runs the hash-indexed
// classifier and the curve stays near-flat — the ablation the paper
// could not perform ("it is not possible to evaluate the rules in a
// hierarchical way, or with a hash table").
func Fig6(counts []int, pings int, seed int64, classifier netem.Classifier) ([]Fig6Point, error) {
	if counts == nil {
		counts = Fig6Counts
	}
	if pings <= 0 {
		pings = 10
	}
	// The paper's measurement network: gigabit with 50 µs latency, one
	// virtual node on each of two machines.
	lan := topo.LinkClass{Name: "lan", Down: netem.Gbps, Up: netem.Gbps, Latency: 50 * time.Microsecond}
	var out []Fig6Point
	for _, rules := range counts {
		a, err := scenario.Assemble(seed, topo.Uniform(2, lan), vnet.DefaultConfig(), 1)
		if err != nil {
			return nil, err
		}
		for _, pn := range a.Cluster.Nodes() {
			pn.Rules().SetClassifier(classifier)
		}
		// Filler rules on the first node, never matching the ping path
		// (the paper pads the table to vary evaluation cost; see
		// netem.PadFiller for the shape).
		netem.PadFiller(a.Cluster.Node(0).Rules(), rules)
		var st vnet.PingStats
		a.Kernel.Go("pinger", func(p *sim.Proc) {
			st = a.Hosts[0].PingSeries(p, a.Hosts[1].Addr(), vnet.DefaultPingSize, pings, 50*time.Millisecond, 5*time.Second)
			a.Kernel.Stop()
		})
		if err := a.Kernel.Run(); err != nil {
			return nil, err
		}
		out = append(out, Fig6Point{Rules: rules, Stats: st})
	}
	return out, nil
}

// Fig6Series converts Fig6 points into avg/min/max series (the paper
// plots "round trip time (avg, min, max)").
func Fig6Series(points []Fig6Point) []*metrics.Series {
	avg := &metrics.Series{Name: "rtt-avg"}
	min := &metrics.Series{Name: "rtt-min"}
	max := &metrics.Series{Name: "rtt-max"}
	for _, pt := range points {
		x := float64(pt.Rules)
		avg.Add(x, pt.Stats.Avg.Seconds()*1000)
		min.Add(x, pt.Stats.Min.Seconds()*1000)
		max.Add(x, pt.Stats.Max.Seconds()*1000)
	}
	return []*metrics.Series{avg, min, max}
}

// Fig6Indexed is the ablation: the same sweep with a hash-indexed
// classifier instead of the linear table, showing the flat curve IPFW
// could not offer. It reports the rules *visited* per evaluation for
// both structures.
func Fig6Indexed(counts []int) []*metrics.Series {
	if counts == nil {
		counts = Fig6Counts
	}
	linear := &metrics.Series{Name: "linear-visited"}
	indexed := &metrics.Series{Name: "indexed-visited"}
	src := ip.MustParseAddr("10.0.0.1")
	dst := ip.MustParseAddr("10.0.0.2")
	for _, rules := range counts {
		rs := netem.NewRuleSet()
		rs.AddCount(ip.NewPrefix(src, 32), ip.Prefix{})
		rs.AddCount(ip.Prefix{}, ip.NewPrefix(src, 32))
		// Filler shaped like real per-vnode rules (/32 sources), so the
		// hash index can bucket them — the point of the ablation (see
		// netem.PadFiller).
		netem.PadFiller(rs, rules)
		ix := netem.NewIndexedRuleSet(rs)
		lv := rs.Eval(src, dst)
		iv := ix.Eval(src, dst)
		linear.Add(float64(rules), float64(lv.Visited))
		indexed.Add(float64(rules), float64(iv.Visited))
	}
	return []*metrics.Series{linear, indexed}
}

// Fig7Result reports the topology-latency check around the paper's
// worked example (853 ms measured between 10.1.3.207 and 10.2.2.117).
type Fig7Result struct {
	RTT          time.Duration
	ModelRTT     time.Duration // 850 ms: 2×(egress+group+ingress)
	Overhead     time.Duration // emulation overhead beyond the model
	EgressDelay  time.Duration // 20 ms
	GroupDelay   time.Duration // 400 ms
	IngressDelay time.Duration // 5 ms
	Hosts        int
}

// Fig7 builds the full Fig 7 topology (2750 nodes in 5 groups over 3
// regions) on a physical cluster, then measures the paper's worked
// example with ping.
func Fig7(physNodes int, seed int64) (Fig7Result, error) {
	if physNodes <= 0 {
		physNodes = 14
	}
	tp := topo.Fig7()
	// Folded as a spec folds: the machine count follows from the nodes
	// and the folding (14 machines for the default).
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
		ModelRTT:     850 * time.Millisecond,
		EgressDelay:  topo.FastDSL.Latency,
		GroupDelay:   400 * time.Millisecond,
		IngressDelay: topo.Campus.Latency,
		Hosts:        len(a.Hosts),
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
// clients per physical node.
var Fig9Foldings = []int{1, 10, 20, 40, 80}

// Fig9 runs the Fig 8 experiment at each folding ratio and returns one
// cumulative-data series per folding. The paper's result: the curves
// coincide ("results are nearly identical ... even with 80 virtual
// nodes on each physical node").
func Fig9(base scenario.Spec, foldings []int) ([]*metrics.Series, []*scenario.Result, error) {
	var series []*metrics.Series
	var results []*scenario.Result
	for _, f := range foldings {
		sp := base
		sp.Folding = f
		res, err := scenario.Run(&sp, scenario.Options{})
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("%d client(s) per physical node", f)
		series = append(series, TotalReceivedSeries(name, res.Progress))
		results = append(results, res)
	}
	return series, results, nil
}
