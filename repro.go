// Package repro is a Go reproduction of P2PLab, the lightweight
// emulation platform for studying peer-to-peer systems of Nussbaum &
// Richard ("Lightweight emulation to study peer-to-peer systems",
// Hot-P2P/IPPS 2006).
//
// The package is a facade over the substrate packages:
//
//   - a deterministic virtual-time kernel (internal/sim) on which all
//     experiments run reproducibly;
//   - a Dummynet/IPFW-style network emulator (internal/netem);
//   - edge-centric topologies: access-link classes and group latencies
//     (internal/topo);
//   - virtual sockets and node network identities (internal/vnet);
//   - the physical-cluster model with folding and per-node firewalls
//     (internal/virt);
//   - OS scheduler simulators for the paper's FreeBSD-vs-Linux study
//     (internal/sched);
//   - a full BitTorrent implementation (internal/bt);
//   - declarative scenarios — topology, workload, folding, timeline —
//     and their one runner (internal/scenario);
//   - one driver per paper figure (internal/exp).
//
// The quickest way in is Lab:
//
//	lab, _ := repro.NewLab(repro.LabConfig{Seed: 1, Nodes: 2, Class: repro.DSL})
//	lab.Go("ping", func(p *repro.Proc) {
//	    rtt, _ := lab.Hosts[0].Ping(p, lab.Hosts[1].Addr(), 56, time.Second)
//	    fmt.Println("rtt:", rtt)
//	})
//	lab.Run()
package repro

import (
	"fmt"
	"time"

	"repro/internal/bt"
	"repro/internal/chord"
	"repro/internal/churn"
	"repro/internal/exp"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/virt"
	"repro/internal/vnet"
)

// Core type aliases: the full substrate API is reachable through them.
type (
	// Kernel is the deterministic virtual-time simulation kernel.
	Kernel = sim.Kernel
	// Proc is a simulated goroutine's handle.
	Proc = sim.Proc
	// Time is an instant on the virtual timeline.
	Time = sim.Time

	// Addr is an IPv4-style address; Endpoint an (addr, port) pair.
	Addr = ip.Addr
	// Endpoint is a socket identity.
	Endpoint = ip.Endpoint
	// Prefix is a CIDR block.
	Prefix = ip.Prefix

	// Network is the virtual internet; Host one virtual node.
	Network = vnet.Network
	// Host is a virtual node with its own network identity.
	Host = vnet.Host
	// Conn is a TCP-like connection between virtual nodes.
	Conn = vnet.Conn
	// Listener accepts inbound virtual connections.
	Listener = vnet.Listener

	// Pipe is a Dummynet-style shaped link.
	Pipe = netem.Pipe
	// PipeConfig configures bandwidth/delay/loss/queue of a Pipe.
	PipeConfig = netem.PipeConfig
	// RuleSet is an IPFW-style linearly evaluated firewall table.
	RuleSet = netem.RuleSet

	// Topology is an edge-centric network description.
	Topology = topo.Topology
	// Group is a set of nodes sharing a prefix and link class.
	Group = topo.Group
	// LinkClass describes a node's access link.
	LinkClass = topo.LinkClass

	// Cluster is the physical machine model (folding, NIC, firewall).
	Cluster = virt.Cluster
	// ClusterConfig configures a Cluster.
	ClusterConfig = virt.Config

	// SchedKind selects an OS scheduler model (4BSD, ULE, Linux 2.6).
	SchedKind = sched.Kind
	// SchedConfig configures the simulated machine.
	SchedConfig = sched.Config
	// SchedResult is the outcome of a scheduler run.
	SchedResult = sched.Result

	// Swarm is a BitTorrent experiment bundle.
	Swarm = bt.Swarm
	// SwarmSpec describes the torrent side of a swarm.
	SwarmSpec = bt.SwarmSpec
	// BTClient is one BitTorrent node.
	BTClient = bt.Client
	// MetaInfo is a .torrent description.
	MetaInfo = bt.MetaInfo

	// Series is a named (x, y) curve; Summary holds order statistics.
	Series = metrics.Series
	// Summary holds order statistics of a sample.
	Summary = metrics.Summary

	// Scenario is a declarative experiment: groups, link model,
	// workload, folding and a timeline of network events. The swarm
	// figures (8–11) are Scenario values.
	Scenario = scenario.Spec
	// ScenarioOptions tunes how a Scenario is executed.
	ScenarioOptions = scenario.Options
	// ScenarioResult is the measured result of a scenario run.
	ScenarioResult = scenario.Result
	// Duration is a JSON-friendly time.Duration, the type of a
	// Scenario's time-valued fields.
	Duration = scenario.Duration

	// ChordNode is one Chord DHT participant (extension system).
	ChordNode = chord.Node
	// ChordConfig tunes the Chord maintenance protocol.
	ChordConfig = chord.Config
	// ChurnDriver applies arrival/departure processes to peers.
	ChurnDriver = churn.Driver
	// ChurnConfig describes a churn process.
	ChurnConfig = churn.Config
)

// Link classes of the paper's experiments.
var (
	// DSL is the BitTorrent experiments' link (2 Mb/s down, 128 kb/s
	// up, 30 ms).
	DSL = topo.DSL
	// Modem, SlowDSL, FastDSL, Campus, Office are Fig 7's classes.
	Modem   = topo.Modem
	SlowDSL = topo.SlowDSL
	FastDSL = topo.FastDSL
	Campus  = topo.Campus
	Office  = topo.Office
	// LAN is an unconstrained link for trackers and servers.
	LAN = topo.LAN
)

// Scheduler kinds.
const (
	FourBSD = sched.FourBSD
	ULE     = sched.ULE
	LinuxO1 = sched.LinuxO1
)

// Re-exported constructors.
var (
	// NewKernel creates a deterministic virtual-time kernel.
	NewKernel = sim.New
	// NewTopology creates an empty topology.
	NewTopology = topo.New
	// Fig7Topology builds the paper's Fig 7 three-region topology.
	Fig7Topology = topo.Fig7
	// UniformTopology builds a single-group topology.
	UniformTopology = topo.Uniform
	// ParseAddr and ParsePrefix parse dotted-quad notation.
	ParseAddr   = ip.ParseAddr
	ParsePrefix = ip.ParsePrefix
	// MustParseAddr and MustParsePrefix panic on error; for literals.
	MustParseAddr   = ip.MustParseAddr
	MustParsePrefix = ip.MustParsePrefix
	// RunSched simulates jobs under an OS scheduler model.
	RunSched = sched.Run
	// DefaultSchedConfig returns the paper's GridExplorer-like machine.
	DefaultSchedConfig = sched.DefaultConfig
	// CPUBoundJobs, MemoryJobs and FairnessJobs build the paper's three
	// process workloads (Figs 1, 2 and 3).
	CPUBoundJobs = sched.CPUBoundJobs
	MemoryJobs   = sched.MemoryJobs
	FairnessJobs = sched.FairnessJobs
	// BuildSwarm assembles a BitTorrent swarm on prepared hosts.
	BuildSwarm = bt.BuildSwarm
	// RunScenario executes a Scenario on a fresh kernel — how every
	// workload experiment, the swarm figures (8–11) included, runs.
	RunScenario = scenario.Run
	// WriteDat renders series as gnuplot-compatible data.
	WriteDat = metrics.WriteDat
)

// Figure drivers (see DESIGN.md for the experiment index).
var (
	Fig1         = exp.Fig1
	Fig2         = exp.Fig2
	Fig3         = exp.Fig3
	BindOverhead = exp.BindOverhead
	Fig6         = exp.Fig6
	Fig6Series   = exp.Fig6Series
	Fig6Indexed  = exp.Fig6Indexed
	Fig7         = exp.Fig7
	Fig8Spec     = exp.Fig8Spec
	Fig9         = exp.Fig9
	Fig10Spec    = exp.Fig10Spec
	// ScaleSpec shrinks a swarm figure's scenario by an integer factor.
	ScaleSpec = exp.ScaleSpec
	// TotalReceivedSeries merges per-client trajectories into the
	// swarm-wide cumulative curve of Fig 9.
	TotalReceivedSeries = exp.TotalReceivedSeries
)

// Extension experiments: Chord DHT studies and churn.
var (
	// NewChordNode creates a Chord node on a virtual host.
	NewChordNode = chord.NewNode
	// DefaultChordConfig returns standard maintenance periods.
	DefaultChordConfig = chord.DefaultConfig
	// DHTScaling measures Chord lookup hops vs ring size (E1).
	DHTScaling = exp.DHTScaling
	// DHTLocality measures Chord lookup latency vs access link (E2).
	DHTLocality = exp.DHTLocality
	// NewChurnDriver creates a churn process driver.
	NewChurnDriver = churn.NewDriver
	// GossipSpread and GossipFanoutSweep run epidemic dissemination
	// experiments (E6).
	GossipSpread      = exp.GossipSpread
	GossipFanoutSweep = exp.GossipFanoutSweep
)

// LabConfig configures a Lab, the one-stop experiment environment.
type LabConfig struct {
	// Seed drives the deterministic random source (default 1).
	Seed int64
	// Nodes is the number of virtual nodes to create (ignored when
	// Topology is set).
	Nodes int
	// Class is the access link for Nodes-style creation (default DSL).
	Class LinkClass
	// Topology, when set, populates one host per topology node instead.
	Topology *Topology
	// PhysNodes, when positive, adds the physical-cluster layer with
	// this many machines; Folding sets virtual nodes per machine.
	PhysNodes int
	Folding   int
}

// Lab bundles a kernel, a network, optional cluster and hosts.
type Lab struct {
	Kernel  *Kernel
	Net     *Network
	Cluster *Cluster
	Topo    *Topology
	Hosts   []*Host
}

// NewLab builds a ready-to-use experiment environment.
func NewLab(cfg LabConfig) (*Lab, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	k := sim.New(seed)
	l := &Lab{Kernel: k, Topo: cfg.Topology}

	var fabric vnet.Fabric
	if cfg.PhysNodes > 0 {
		ccfg := virt.DefaultConfig(cfg.Topology)
		cl, err := virt.NewCluster(k, cfg.PhysNodes, ccfg)
		if err != nil {
			return nil, err
		}
		l.Cluster = cl
		fabric = cl
	} else if cfg.Topology != nil {
		fabric = &vnet.TopoFabric{Topo: cfg.Topology}
	}
	l.Net = vnet.NewNetwork(k, fabric, vnet.DefaultConfig())

	switch {
	case cfg.Topology != nil:
		hosts, err := l.Net.PopulateTopology(cfg.Topology)
		if err != nil {
			return nil, err
		}
		l.Hosts = hosts
	case cfg.Nodes > 0:
		class := cfg.Class
		if class.Name == "" {
			class = DSL
		}
		base := ip.MustParseAddr("10.0.0.1")
		for i := 0; i < cfg.Nodes; i++ {
			h, err := l.Net.AddHostClass(base.Add(uint32(i)), class)
			if err != nil {
				return nil, err
			}
			l.Hosts = append(l.Hosts, h)
		}
	}
	if l.Cluster != nil && len(l.Hosts) > 0 {
		folding := cfg.Folding
		if folding <= 0 {
			folding = (len(l.Hosts) + cfg.PhysNodes - 1) / cfg.PhysNodes
		}
		if err := l.Cluster.PlaceSuccessive(l.Hosts, folding); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Go spawns a simulated goroutine (sugar for Kernel.Go).
func (l *Lab) Go(name string, fn func(p *Proc)) { l.Kernel.Go(name, fn) }

// Run executes the lab to completion.
func (l *Lab) Run() error { return l.Kernel.Run() }

// RunFor executes the lab for at most d of virtual time.
func (l *Lab) RunFor(d time.Duration) error { return l.Kernel.RunUntil(sim.Time(d)) }

// Host returns the i-th host, for quick scripting.
func (l *Lab) Host(i int) *Host {
	if i < 0 || i >= len(l.Hosts) {
		panic(fmt.Sprintf("repro: lab has %d hosts, no index %d", len(l.Hosts), i))
	}
	return l.Hosts[i]
}
