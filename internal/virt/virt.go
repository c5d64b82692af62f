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
// the per-virtual-node firewall entries are count rules, so bandwidth is
// shaped exactly once. A table of count rules never decides a verdict
// and every scan visits all of it, so a machine keeps only its table's
// length — two rules per hosted virtual node plus, for each group it
// hosts nodes of, one rule per group that group has a declared latency
// with — and each scan is priced at that length times
// netem.DefaultPerRuleCost, the paper's linear evaluation cost.
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

// adminBlock is the administration network the machines are
// addressed from (paper Fig 4 used 192.168.38.0/24): large enough for
// one machine per node of the largest legal spec, and clear of the
// 10/8 group blocks and the 192.168.0.0/24 tracker and web-seed
// addresses.
var adminBlock = ip.MustParsePrefix("172.16.0.0/12")

// nic is each machine's interface pipe, applied in each direction:
// the paper's Gigabit Ethernet, topo.GigE's link.
var nic = netem.PipeConfig{Bandwidth: topo.GigE.Up, Delay: topo.GigE.Latency}

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
	name    string
	nicOut  *netem.Pipe
	nicIn   *netem.Pipe
	cpu     *netem.Pipe
	rules   int // firewall table length: count rules, all scanned
	aliases []ip.Addr
	groups  map[*topo.Group]bool // groups whose latency rules are installed
}

// Cluster is a set of physical nodes and the placement of virtual nodes
// onto them. It implements vnet.Fabric.
type Cluster struct {
	topo      *topo.Topology
	nodes     []*PhysNode
	placement map[ip.Addr]*PhysNode
}

// CheckTopology reports whether topology t can be folded: no group
// prefix may overlap the admin block the machines are addressed from.
func CheckTopology(t *topo.Topology) error {
	for _, g := range t.Groups() {
		if g.Prefix.Overlaps(adminBlock) {
			return fmt.Errorf("virt: group %q: prefix %v overlaps the cluster's admin block %v",
				g.Name, g.Prefix, adminBlock)
		}
	}
	return nil
}

// NewCluster creates n physical nodes, addressed from the admin
// block, under topology t, which supplies the inter-group latencies
// and the groups for the latency rules. A topology CheckTopology
// rejects is an error.
func NewCluster(k *sim.Kernel, n int, t *topo.Topology) (*Cluster, error) {
	if uint64(n)+1 > adminBlock.Size() {
		return nil, fmt.Errorf("virt: %d nodes do not fit admin subnet %v", n, adminBlock)
	}
	if err := CheckTopology(t); err != nil {
		return nil, err
	}
	c := &Cluster{
		topo:      t,
		placement: make(map[ip.Addr]*PhysNode),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("phys%d", i)
		pn := &PhysNode{
			name:   name,
			nicOut: netem.NewPipe(k, name+"/nic-out", nic),
			nicIn:  netem.NewPipe(k, name+"/nic-in", nic),
			cpu:    netem.NewPipe(k, name+"/cpu", netem.PipeConfig{Bandwidth: cpuBytesPerSec * 8}),
			groups: make(map[*topo.Group]bool),
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
// hosted virtual node") and, for the first node of its group on the
// machine, one rule per group its group has a declared latency with,
// as in the paper's Fig 7 walk-through.
func (c *Cluster) place(addr ip.Addr, pn *PhysNode) error {
	if adminBlock.Contains(addr) {
		return fmt.Errorf("virt: %v collides with admin subnet %v", addr, adminBlock)
	}
	if prev := c.placement[addr]; prev != nil {
		return fmt.Errorf("virt: %v already placed on %s", addr, prev.name)
	}
	c.placement[addr] = pn
	pn.aliases = append(pn.aliases, addr)
	pn.rules += 2 // outgoing and incoming packets
	if g := c.topo.Locate(addr); g != nil && !pn.groups[g] {
		pn.groups[g] = true
		pn.rules += c.topo.Peers(g)
	}
	return nil
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
// scan costs its length in rules and never drops.
func (c *Cluster) Route(src, dst ip.Addr, path []*netem.Pipe) ([]*netem.Pipe, vnet.Route) {
	var r vnet.Route
	sp := c.placement[src]
	dp := c.placement[dst]
	cross := sp != nil && dp != nil && sp != dp
	if sp != nil {
		r.Cost += time.Duration(sp.rules)*netem.DefaultPerRuleCost + perMessageCPU
	}
	if dp != nil {
		r.Cost += time.Duration(dp.rules)*netem.DefaultPerRuleCost + perMessageCPU
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
	r.Latency += c.topo.GroupLatency(src, dst)
	return path, r
}
