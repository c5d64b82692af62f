// Package topo describes emulated network topologies the way P2PLab
// does: from the end node's point of view. A topology is a set of
// disjoint node groups (an ISP, a campus, a country), each a prefix with
// an access-link class (asymmetric bandwidth, latency, loss) for its
// member nodes, plus one table of pairwise latencies between groups. No
// group holds another, so an address has one group and a message one
// table lookup. There is deliberately no core-network model — the
// paper's argument is that the edge link is the bottleneck for
// peer-to-peer workloads.
package topo

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
)

// LinkClass describes the access link between a node and its ISP:
// asymmetric down/up bandwidth, one-way latency and loss rate. The
// latency is charged on each traversal (egress at the sender, ingress at
// the receiver), matching the paper's Fig 7 decomposition.
type LinkClass struct {
	Name    string
	Down    int64 // bits per second toward the node
	Up      int64 // bits per second from the node
	Latency time.Duration
	Loss    float64
}

// Predefined access-link classes used across the paper's experiments.
var (
	// DSL reproduces the BitTorrent experiments' link: "a download rate
	// of 2 mbps, an upload rate of 128 kbps, and a latency of 30 ms".
	DSL = LinkClass{Name: "dsl", Down: 2 * netem.Mbps, Up: 128 * netem.Kbps, Latency: 30 * time.Millisecond}
	// Modem is the 10.1.1.0/24 class of Fig 7.
	Modem = LinkClass{Name: "modem", Down: 56 * netem.Kbps, Up: 33_600, Latency: 100 * time.Millisecond}
	// SlowDSL is the 10.1.2.0/24 class of Fig 7.
	SlowDSL = LinkClass{Name: "slow-dsl", Down: 512 * netem.Kbps, Up: 128 * netem.Kbps, Latency: 40 * time.Millisecond}
	// FastDSL is the 10.1.3.0/24 class of Fig 7.
	FastDSL = LinkClass{Name: "fast-dsl", Down: 8 * netem.Mbps, Up: 1 * netem.Mbps, Latency: 20 * time.Millisecond}
	// Campus is the 10.2.0.0/16 class of Fig 7 (symmetric 10 Mb/s).
	Campus = LinkClass{Name: "campus", Down: 10 * netem.Mbps, Up: 10 * netem.Mbps, Latency: 5 * time.Millisecond}
	// Office is the 10.3.0.0/16 class of Fig 7 (symmetric 1 Mb/s).
	Office = LinkClass{Name: "office", Down: 1 * netem.Mbps, Up: 1 * netem.Mbps, Latency: 10 * time.Millisecond}
	// LAN is an effectively unconstrained link for trackers and servers.
	LAN = LinkClass{Name: "lan", Down: 1 * netem.Gbps, Up: 1 * netem.Gbps, Latency: time.Millisecond}
	// GigE is the paper's measurement network, gigabit Ethernet with
	// 50 µs latency: the Fig 6 link and every cluster machine's NIC.
	GigE = LinkClass{Name: "gige", Down: 1 * netem.Gbps, Up: 1 * netem.Gbps, Latency: 50 * time.Microsecond}
)

// Classes lists the predefined access-link classes.
func Classes() []LinkClass {
	return []LinkClass{DSL, Modem, SlowDSL, FastDSL, Campus, Office, LAN, GigE}
}

// ClassByName looks up a predefined access-link class by its Name,
// for command-line parameter grids.
func ClassByName(name string) (LinkClass, bool) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, true
		}
	}
	return LinkClass{}, false
}

// Group is a set of nodes sharing a prefix and an access-link class.
// A topology's groups are disjoint: no address lies in two of them.
type Group struct {
	Name   string
	Prefix ip.Prefix
	Class  LinkClass
	Nodes  int // number of addressable nodes, at least one
}

// Topology is a set of disjoint groups and one table of pairwise group
// latencies.
type Topology struct {
	groups  []*Group
	byName  map[string]*Group
	latency map[[2]*Group]time.Duration // declared pairs, both directions
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		byName:  make(map[string]*Group),
		latency: make(map[[2]*Group]time.Duration),
	}
}

// AddGroup registers a group. It returns an error for a duplicate name,
// a prefix that shares an address with an existing group's, or a node
// count the prefix cannot hold.
func (t *Topology) AddGroup(g Group) (*Group, error) {
	if _, dup := t.byName[g.Name]; dup {
		return nil, fmt.Errorf("topo: duplicate group %q", g.Name)
	}
	for _, other := range t.groups {
		if g.Prefix.Overlaps(other.Prefix) {
			return nil, fmt.Errorf("topo: group %q prefix %v overlaps %q (%v)",
				g.Name, g.Prefix, other.Name, other.Prefix)
		}
	}
	// Nodes are addressed from offset 1 (the base address is the
	// network's own), so a prefix of size s holds s-1 of them.
	if g.Nodes < 1 || uint64(g.Nodes) >= g.Prefix.Size() {
		return nil, fmt.Errorf("topo: group %q wants %d nodes in %v, which holds 1 to %d",
			g.Name, g.Nodes, g.Prefix, g.Prefix.Size()-1)
	}
	gp := g
	t.groups = append(t.groups, &gp)
	t.byName[g.Name] = &gp
	return &gp, nil
}

// MustAddGroup is AddGroup that panics on error; for literal topologies.
func (t *Topology) MustAddGroup(g Group) *Group {
	gp, err := t.AddGroup(g)
	if err != nil {
		panic(err)
	}
	return gp
}

// SetLatency declares the one-way latency between two groups, in both
// directions. Both groups must exist and the latency must not be
// negative.
func (t *Topology) SetLatency(a, b string, d time.Duration) error {
	ga, gb := t.byName[a], t.byName[b]
	if ga == nil || gb == nil {
		return fmt.Errorf("topo: latency between unknown groups %q and %q", a, b)
	}
	if d < 0 {
		return fmt.Errorf("topo: negative latency %v between %q and %q", d, a, b)
	}
	t.latency[[2]*Group{ga, gb}] = d
	t.latency[[2]*Group{gb, ga}] = d
	return nil
}

// MustSetLatency is SetLatency that panics on error.
func (t *Topology) MustSetLatency(a, b string, d time.Duration) {
	if err := t.SetLatency(a, b, d); err != nil {
		panic(err)
	}
}

// Groups returns all groups in registration order.
func (t *Topology) Groups() []*Group { return t.groups }

// Group returns the group with the given name, or nil.
func (t *Topology) Group(name string) *Group { return t.byName[name] }

// Locate returns the group containing a, or nil.
func (t *Topology) Locate(a ip.Addr) *Group {
	for _, g := range t.groups {
		if g.Prefix.Contains(a) {
			return g
		}
	}
	return nil
}

// GroupLatency returns the one-way latency declared between the groups
// of src and dst, or zero. It is asked once per transmitted message and
// allocates nothing.
func (t *Topology) GroupLatency(src, dst ip.Addr) time.Duration {
	if len(t.latency) == 0 {
		return 0
	}
	return t.latency[[2]*Group{t.Locate(src), t.Locate(dst)}]
}

// Peers returns how many other groups g has a nonzero latency with: the
// latency rules a machine hosting g's nodes holds for it.
func (t *Topology) Peers(g *Group) int {
	n := 0
	for _, h := range t.groups {
		if h != g && t.latency[[2]*Group{g, h}] != 0 {
			n++
		}
	}
	return n
}

// TotalNodes sums the node counts of all groups.
func (t *Topology) TotalNodes() int {
	n := 0
	for _, g := range t.groups {
		n += g.Nodes
	}
	return n
}

// Fig7 builds the exact topology of the paper's Fig 7: three DSL/modem
// ISPs in 10.1/16, a 10.2/16 campus and a 10.3/16 office, with 100 ms
// between the ISPs, 400 ms from each ISP to the campus, 600 ms from
// each ISP to the office and 1 s between campus and office.
func Fig7() *Topology {
	t := New()
	isps := []Group{
		{Name: "isp-modem", Prefix: ip.MustParsePrefix("10.1.1.0/24"), Class: Modem, Nodes: 250},
		{Name: "isp-slow-dsl", Prefix: ip.MustParsePrefix("10.1.2.0/24"), Class: SlowDSL, Nodes: 250},
		{Name: "isp-fast-dsl", Prefix: ip.MustParsePrefix("10.1.3.0/24"), Class: FastDSL, Nodes: 250},
	}
	for _, g := range isps {
		t.MustAddGroup(g)
	}
	t.MustAddGroup(Group{Name: "region-2", Prefix: ip.MustParsePrefix("10.2.0.0/16"), Class: Campus, Nodes: 1000})
	t.MustAddGroup(Group{Name: "region-3", Prefix: ip.MustParsePrefix("10.3.0.0/16"), Class: Office, Nodes: 1000})
	for i, g := range isps {
		for _, h := range isps[i+1:] {
			t.MustSetLatency(g.Name, h.Name, 100*time.Millisecond)
		}
		t.MustSetLatency(g.Name, "region-2", 400*time.Millisecond)
		t.MustSetLatency(g.Name, "region-3", 600*time.Millisecond)
	}
	t.MustSetLatency("region-2", "region-3", time.Second)
	return t
}

// Uniform builds a single-group topology of n nodes sharing one link
// class — the configuration of the paper's BitTorrent experiments
// (every node on a DSL-like link, no locality).
func Uniform(n int, class LinkClass) *Topology {
	t := New()
	prefix := ip.MustParsePrefix("10.0.0.0/8")
	t.MustAddGroup(Group{Name: "swarm", Prefix: prefix, Class: class, Nodes: n})
	return t
}
