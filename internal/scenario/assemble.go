package scenario

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/virt"
	"repro/internal/vnet"
)

// Assembly is the emulation platform built for one run: the kernel,
// the network on it, the physical cluster under it when folded, and
// one host per node of the topology's groups.
type Assembly struct {
	Kernel  *sim.Kernel
	Net     *vnet.Network
	Cluster *virt.Cluster // nil unless folded
	// Hosts lists every host in group declaration order, addressed
	// from offset 1 in each group's prefix.
	Hosts []*vnet.Host
	// Groups holds each group's hosts, by group name.
	Groups map[string][]*vnet.Host
}

// Assemble builds the platform a topology describes on a fresh kernel
// seeded with seed: a network configured by cfg and one host per node
// of every group. With folding > 0 the network routes through a
// virt.Cluster of ceil(nodes / folding) machines, which charges the
// topology's group latencies itself, and the hosts are placed folding
// per machine in host order; otherwise the fabric is the bare
// topology. Every experiment's platform is built here: scenario.Run
// for specs, and the figure drivers and the examples for what a spec
// cannot describe.
func Assemble(seed int64, t *topo.Topology, cfg vnet.Config, folding int) (*Assembly, error) {
	a := &Assembly{Kernel: sim.New(seed), Groups: make(map[string][]*vnet.Host)}
	var fabric vnet.Fabric = &vnet.TopoFabric{Topo: t}
	if folding > 0 {
		cl, err := virt.NewCluster(a.Kernel, (t.TotalNodes()-1)/folding+1, t)
		if err != nil {
			return nil, err
		}
		a.Cluster, fabric = cl, cl
	}
	a.Net = vnet.NewNetwork(a.Kernel, fabric, cfg)
	hosts, err := a.Net.PopulateTopology(t)
	if err != nil {
		return nil, err
	}
	a.Hosts = hosts
	for _, g := range t.Groups() {
		a.Groups[g.Name], hosts = hosts[:g.Nodes:g.Nodes], hosts[g.Nodes:]
	}
	if a.Cluster != nil {
		if err := a.Cluster.PlaceSuccessive(a.Hosts, folding); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// compile translates a defaulted, validated spec into what Assemble
// takes: its topology and the network configuration — link model, flow
// window and, when enabled, the padded firewall table.
func (sp *Spec) compile() (*topo.Topology, vnet.Config, error) {
	t, err := sp.topology()
	cfg := vnet.DefaultConfig()
	cfg.Model, _ = netem.ParseModel(sp.Model) // Validate parsed it
	cfg.FlowWindow = sp.FlowWindow.D()
	if sp.FirewallEnabled() {
		classifier := netem.ClassifierLinear
		if sp.Classifier != "" {
			classifier, _ = netem.ParseClassifier(sp.Classifier)
		}
		cfg.Rules = netem.NewFillerTable(sp.FillerRules, classifier)
	}
	return t, cfg, err
}

// topology builds the spec's topo.Topology: one group per spec group,
// prefixed 10.<index+1>.0.0/16 unless pinned, the declared latencies
// and, folded, room for the machines. Validate runs it too.
func (sp *Spec) topology() (*topo.Topology, error) {
	t := topo.New()
	for i, g := range sp.Groups {
		prefix := g.Prefix
		if prefix == "" {
			prefix = fmt.Sprintf("10.%d.0.0/16", i+1)
		}
		pfx, err := ip.ParsePrefix(prefix)
		if err != nil {
			return nil, fmt.Errorf("group %q: bad prefix %q: %w", g.Name, prefix, err)
		}
		class, _ := topo.ClassByName(g.Class)
		if _, err := t.AddGroup(topo.Group{Name: g.Name, Prefix: pfx, Class: class, Nodes: g.Nodes}); err != nil {
			return nil, err
		}
	}
	for _, l := range sp.Latencies {
		if err := t.SetLatency(l.A, l.B, l.OneWay.D()); err != nil {
			return nil, err
		}
	}
	if sp.Folding > 0 {
		if err := virt.CheckTopology(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}
