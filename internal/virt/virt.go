// Package virt models P2PLab's physical substrate: a cluster of physical
// nodes, each hosting many virtual nodes (the folding ratio), with a
// host NIC, a CPU budget and an IPFW rule table per physical node.
//
// The package implements vnet.Fabric: every message between two virtual
// nodes additionally traverses the sending and receiving physical nodes'
// NIC pipes and CPU pipes, is charged the firewall rule-evaluation cost
// on egress and ingress, and picks up the inter-group latency of the
// topology. This is what makes the paper's folding-ratio experiment
// (Fig 9) and its observed limit ("the first limiting factor was the
// network speed" — host NIC saturation) reproducible.
//
// One fidelity note: in real P2PLab the per-node Dummynet pipes *are*
// firewall rules. Here the access-link pipes live on the vnet hosts and
// the per-virtual-node firewall entries are Count rules, so bandwidth is
// shaped exactly once while the rule table keeps the paper's size and
// linear evaluation cost (two rules per hosted virtual node plus one
// rule per reachable group pair).
//
// The fabric is link-model agnostic: the NIC and CPU pipes it adds to
// each route are charged by whichever model the network was built with
// (vnet.Config.Model). Under the flow model the shared physical NIC
// becomes a genuine contention point — virtual nodes folded onto one
// physical node split its capacity max-min fair instead of queueing
// FIFO — which is what makes oversubscribed-cluster studies
// meaningful (see TestClusterNICSharing).
package virt

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// Config describes the physical cluster.
type Config struct {
	// AdminSubnet is the physical nodes' administration network
	// (paper Fig 4: 192.168.38.0/24).
	AdminSubnet ip.Prefix
	// NIC is the physical interface pipe configuration, applied in each
	// direction (default: 1 Gb/s, 50 µs).
	NIC netem.PipeConfig
	// Topo supplies inter-group latencies and group definitions for the
	// latency rules. May be nil for a flat cluster.
	Topo *topo.Topology
}

// DefaultConfig returns a GridExplorer-like cluster configuration:
// Gigabit Ethernet.
func DefaultConfig(t *topo.Topology) Config {
	return Config{
		AdminSubnet: ip.MustParsePrefix("192.168.38.0/24"),
		NIC:         netem.PipeConfig{Bandwidth: 1 * netem.Gbps, Delay: 50 * time.Microsecond},
		Topo:        t,
	}
}

// A physical node's dual-Opteron-class processing budget.
const (
	// cpuBytesPerSec is the node's CPU throughput for message
	// processing, in bytes/second of payload handled.
	cpuBytesPerSec = 1 << 30
	// perMessageCPU is the fixed processing cost per message traversal.
	perMessageCPU = 5 * time.Microsecond
)

// PhysNode is one physical machine of the cluster.
type PhysNode struct {
	name      string
	nicOut    *netem.Pipe
	nicIn     *netem.Pipe
	cpu       *netem.Pipe
	rules     *netem.RuleSet
	aliases   []ip.Addr
	groupSeen map[[2]string]bool // group-pair latency rules installed
}

// Cluster is a set of physical nodes and the placement of virtual nodes
// onto them. It implements vnet.Fabric.
type Cluster struct {
	cfg       Config
	nodes     []*PhysNode
	placement map[ip.Addr]*PhysNode
}

// NewCluster creates n physical nodes with administration addresses
// allocated from the admin subnet.
func NewCluster(k *sim.Kernel, n int, cfg Config) (*Cluster, error) {
	if cfg.AdminSubnet.Bits() == 0 {
		cfg.AdminSubnet = ip.MustParsePrefix("192.168.38.0/24")
	}
	if uint64(n)+1 > cfg.AdminSubnet.Size() {
		return nil, fmt.Errorf("virt: %d nodes do not fit admin subnet %v", n, cfg.AdminSubnet)
	}
	c := &Cluster{
		cfg:       cfg,
		placement: make(map[ip.Addr]*PhysNode),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("phys%d", i)
		pn := &PhysNode{
			name:      name,
			nicOut:    netem.NewPipe(k, name+"/nic-out", cfg.NIC),
			nicIn:     netem.NewPipe(k, name+"/nic-in", cfg.NIC),
			cpu:       netem.NewPipe(k, name+"/cpu", netem.PipeConfig{Bandwidth: cpuBytesPerSec * 8}),
			rules:     netem.NewRuleSet(),
			groupSeen: make(map[[2]string]bool),
		}
		c.nodes = append(c.nodes, pn)
	}
	return c, nil
}

// Nodes returns the physical nodes in order.
func (c *Cluster) Nodes() []*PhysNode { return c.nodes }

// place assigns one virtual address to a physical node: registers the
// interface alias, installs the two per-virtual-node firewall rules
// (incoming and outgoing packets — the paper's "two rules for each
// hosted virtual node") and the group-latency rules its groups need.
func (c *Cluster) place(addr ip.Addr, pn *PhysNode) error {
	if c.cfg.AdminSubnet.Contains(addr) {
		return fmt.Errorf("virt: %v collides with admin subnet %v", addr, c.cfg.AdminSubnet)
	}
	if prev := c.placement[addr]; prev != nil {
		return fmt.Errorf("virt: %v already placed on %s", addr, prev.name)
	}
	c.placement[addr] = pn
	pn.aliases = append(pn.aliases, addr)
	host := ip.NewPrefix(addr, 32)
	pn.rules.AddCount(host, ip.Prefix{}) // outgoing packets
	pn.rules.AddCount(ip.Prefix{}, host) // incoming packets
	if t := c.cfg.Topo; t != nil {
		c.installGroupRules(pn, addr)
	}
	return nil
}

// installGroupRules adds one rule per (group of addr, other group) pair
// with a declared latency, as in the paper's Fig 7 walk-through.
func (c *Cluster) installGroupRules(pn *PhysNode, addr ip.Addr) {
	t := c.cfg.Topo
	g := t.Locate(addr)
	if g == nil {
		return
	}
	for _, other := range t.Groups() {
		if other.Name == g.Name {
			continue
		}
		key := [2]string{g.Name, other.Name}
		if pn.groupSeen[key] {
			continue
		}
		if t.GroupLatency(g.Prefix.Addr(), other.Prefix.Addr()) == 0 {
			continue
		}
		pn.groupSeen[key] = true
		pn.rules.AddCount(g.Prefix, other.Prefix)
	}
}

// PlaceSuccessive deploys hosts perNode at a time: the first perNode
// hosts on phys0, the next on phys1, and so on — the paper's
// "deployed successively on 160 physical nodes, 16 physical nodes (10
// virtual nodes per physical node), 8, 4 and 2".
func (c *Cluster) PlaceSuccessive(hosts []*vnet.Host, perNode int) error {
	if perNode <= 0 {
		return fmt.Errorf("virt: perNode must be positive, got %d", perNode)
	}
	if (len(hosts)+perNode-1)/perNode > len(c.nodes) {
		return fmt.Errorf("virt: %d hosts at %d per node exceed %d physical nodes",
			len(hosts), perNode, len(c.nodes))
	}
	for i, h := range hosts {
		if err := c.place(h.Addr(), c.nodes[i/perNode]); err != nil {
			return err
		}
	}
	return nil
}

// FoldingRatio returns virtual nodes per used physical node (the
// paper's headline virtualization metric).
func (c *Cluster) FoldingRatio() float64 {
	used := 0
	for _, pn := range c.nodes {
		if len(pn.aliases) > 0 {
			used++
		}
	}
	if used == 0 {
		return 0
	}
	return float64(len(c.placement)) / float64(used)
}

// Route implements vnet.Fabric. The message is charged: the egress
// firewall scan, the source NIC, the inter-group latency, the
// destination NIC, the ingress firewall scan, and CPU processing at
// both ends. Messages between virtual nodes of the same physical node
// skip the NIC (loopback) but still pay the firewall and CPU. The
// machine tables hold count rules only (see the package doc), so a
// scan costs time and never drops.
func (c *Cluster) Route(src, dst ip.Addr, path []*netem.Pipe) ([]*netem.Pipe, vnet.Route) {
	var r vnet.Route
	sp := c.placement[src]
	dp := c.placement[dst]
	cross := sp != nil && dp != nil && sp != dp
	if sp != nil {
		r.Cost += sp.rules.Eval(src, dst).Cost + perMessageCPU
	}
	if dp != nil {
		r.Cost += dp.rules.Eval(src, dst).Cost + perMessageCPU
	}
	if cross {
		path = append(path, sp.nicOut)
	}
	if sp != nil {
		path = append(path, sp.cpu)
	}
	if dp != nil && dp != sp {
		path = append(path, dp.cpu)
	}
	if cross {
		path = append(path, dp.nicIn)
	}
	if c.cfg.Topo != nil {
		r.Latency += c.cfg.Topo.GroupLatency(src, dst)
	}
	return path, r
}
