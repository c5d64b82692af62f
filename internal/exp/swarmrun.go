// Package exp contains one driver per table and figure of the paper's
// evaluation. Each driver builds the experiment from the substrate
// packages, runs it on a fresh kernel and returns typed series ready
// for rendering (metrics.WriteDat) and for assertions in tests and
// benchmarks. The extension experiments and the sweep engine build
// nothing themselves: a sweep cell compiles to a scenario.Spec
// (Cell.Spec) and runs through scenario.Run.
//
// The index figure → driver lives in DESIGN.md; paper-vs-measured
// numbers live in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"time"

	"repro/internal/bt"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/virt"
	"repro/internal/vnet"
)

// SwarmParams configures one BitTorrent swarm experiment (Figs 8–11).
type SwarmParams struct {
	Clients       int
	Seeders       int
	FileSize      int64
	StartInterval time.Duration
	Class         topo.LinkClass
	// Folding is the number of virtual nodes per physical node; 0 runs
	// without the physical-cluster layer (pure network emulation).
	Folding int
	// PhysNodes overrides the computed physical node count.
	PhysNodes int
	// Model selects pipe-level (default) or flow-level link emulation
	// for the whole experiment.
	Model netem.ModelKind
	// Window batches the flow model's re-rate solves
	// (vnet.Config.FlowWindow); ignored under the pipe model.
	Window time.Duration
	// Rules pads the network firewall with this many filler rules
	// (never matching swarm traffic): every message then pays the
	// classification cost, the Fig 6 artifact applied to a whole
	// workload. 0 runs without a firewall (vnet.Config.Rules == nil).
	Rules int
	// Classifier selects the firewall's classification algorithm when
	// Rules > 0.
	Classifier netem.Classifier
	Seed       int64
	// Horizon caps the experiment's virtual time.
	Horizon time.Duration
}

// fillerRules builds a firewall table padded with n filler rules under
// the given classifier, or nil for n == 0 (no firewall at all).
func fillerRules(n int, classifier netem.Classifier) *netem.RuleSet {
	if n <= 0 {
		return nil
	}
	return netem.NewFillerTable(n, classifier)
}

// Fig8Params returns the paper's first BitTorrent experiment: "the
// download of a 16 MB file by 160 clients ... provided by 4 seeders.
// All nodes have a network connection with a download rate of 2 mbps,
// an upload rate of 128 kbps, and a latency of 30 ms ... clients are
// started with a 10s interval."
func Fig8Params() SwarmParams {
	return SwarmParams{
		Clients:       160,
		Seeders:       4,
		FileSize:      16 * 1024 * 1024,
		StartInterval: 10 * time.Second,
		Class:         topo.DSL,
		Seed:          1,
		Horizon:       4 * time.Hour,
	}
}

// Fig10Params returns the scalability experiment: "5760 virtual nodes
// (5754 clients, 4 seeders, one tracker) hosted on 180 physical nodes
// (32 virtual nodes per physical node). The clients are started every
// 0.25s."
func Fig10Params() SwarmParams {
	return SwarmParams{
		Clients:       5754,
		Seeders:       4,
		FileSize:      16 * 1024 * 1024,
		StartInterval: 250 * time.Millisecond,
		Class:         topo.DSL,
		Folding:       32,
		PhysNodes:     180,
		Seed:          1,
		Horizon:       6 * time.Hour,
	}
}

// Scale shrinks a swarm experiment by an integer factor (clients,
// file size) while preserving link classes and intervals — used by
// tests and -short benchmarks.
func (sp SwarmParams) Scale(factor int) SwarmParams {
	out := sp
	if factor <= 1 {
		return out
	}
	out.Clients = sp.Clients / factor
	if out.Clients < 2 {
		out.Clients = 2
	}
	out.FileSize = sp.FileSize / int64(factor)
	if out.FileSize < 512*1024 {
		out.FileSize = 512 * 1024
	}
	if out.PhysNodes > 0 {
		out.PhysNodes = (out.Clients + out.Folding - 1) / out.Folding
	}
	return out
}

// PieceEvent is one piece completion anywhere in the swarm.
type PieceEvent struct {
	At    sim.Time
	Bytes int64 // size of the completed piece
}

// SwarmOutcome is the measured result of one swarm run.
type SwarmOutcome struct {
	Params      SwarmParams
	Meta        *bt.MetaInfo
	Completions []sim.Time      // per client; zero = unfinished
	PerClient   [][]bt.Progress // per-client piece trajectories
	Pieces      []PieceEvent    // global, in time order
	AllDone     bool
	EndedAt     sim.Time
	Kernel      sim.Stats
	Net         vnet.NetworkStats
}

// RunSwarm executes one swarm experiment to completion (or horizon).
func RunSwarm(sp SwarmParams) (*SwarmOutcome, error) {
	k := sim.New(sp.Seed)

	var fabric vnet.Fabric
	var cluster *virt.Cluster
	if sp.Folding > 0 {
		physNodes := sp.PhysNodes
		if physNodes == 0 {
			physNodes = (sp.Clients + sp.Seeders + sp.Folding - 1) / sp.Folding
		}
		cfg := virt.DefaultConfig(nil)
		if physNodes > 200 {
			cfg.AdminSubnet = ip.MustParsePrefix("192.168.0.0/16")
		}
		var err error
		cluster, err = virt.NewCluster(k, physNodes, cfg)
		if err != nil {
			return nil, err
		}
		fabric = cluster
	}
	ncfg := vnet.DefaultConfig()
	ncfg.Model = sp.Model
	ncfg.FlowWindow = sp.Window
	ncfg.Rules = fillerRules(sp.Rules, sp.Classifier)
	net := vnet.NewNetwork(k, fabric, ncfg)

	trackerHost, err := net.AddHostClass(ip.MustParseAddr("10.250.0.1"), topo.LAN)
	if err != nil {
		return nil, err
	}
	var nodeHosts []*vnet.Host
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < sp.Seeders+sp.Clients; i++ {
		h, err := net.AddHostClass(base.Add(uint32(i)), sp.Class)
		if err != nil {
			return nil, err
		}
		nodeHosts = append(nodeHosts, h)
		h.SetBindEnv(h.Addr()) // P2PLab's BINDIP interception is active
	}
	if cluster != nil {
		if err := cluster.PlaceSuccessive(nodeHosts, sp.Folding); err != nil {
			return nil, err
		}
	}

	spec := bt.DefaultSwarmSpec()
	spec.FileSize = sp.FileSize
	swarm, err := bt.BuildSwarm(spec, trackerHost, nodeHosts[:sp.Seeders], nodeHosts[sp.Seeders:])
	if err != nil {
		return nil, err
	}

	out := &SwarmOutcome{Params: sp, Meta: swarm.Meta}
	for _, c := range swarm.Clients {
		c.OnPiece = func(_ *bt.Client, at sim.Time, piece int, _ int64) {
			out.Pieces = append(out.Pieces, PieceEvent{At: at, Bytes: int64(swarm.Meta.PieceSize(piece))})
		}
	}
	swarm.Start(sp.StartInterval)
	k.Go("experiment-waiter", func(p *sim.Proc) {
		out.AllDone = swarm.WaitAll(p, sp.Horizon)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("exp: swarm kernel: %w", err)
	}
	out.Completions = swarm.CompletionTimes()
	for _, c := range swarm.Clients {
		out.PerClient = append(out.PerClient, c.Progress())
	}
	out.EndedAt = k.Now()
	out.Kernel = k.Snapshot()
	out.Net = net.Stats()
	return out, nil
}

// ProgressSeries converts a client trajectory into a percent-complete
// series — one curve of Fig 8 / Fig 10.
func ProgressSeries(name string, prog []bt.Progress, total int64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for _, pt := range prog {
		s.Add(pt.At.Seconds(), 100*float64(pt.Bytes)/float64(total))
	}
	return s
}

// CompletionSeries builds "clients having completed the download" over
// time — Fig 11.
func CompletionSeries(completions []sim.Time) *metrics.Series {
	var done []float64
	for _, c := range completions {
		if c > 0 {
			done = append(done, c.Seconds())
		}
	}
	s := metrics.CDF(done)
	s.Name = "completions"
	// Scale F(x) back to absolute counts.
	for i := range s.Points {
		s.Points[i].Y *= float64(len(done))
	}
	return &s
}

// TotalReceivedSeries builds "total amount of data received by the
// nodes" over time, in megabytes — the y-axis of Fig 9.
func TotalReceivedSeries(name string, events []PieceEvent) *metrics.Series {
	s := &metrics.Series{Name: name}
	var cum float64
	for _, e := range events {
		cum += float64(e.Bytes) / (1 << 20)
		s.Add(e.At.Seconds(), cum)
	}
	return s
}
