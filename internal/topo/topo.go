// Package topo describes emulated network topologies the way P2PLab
// does: from the end node's point of view. A topology is a set of node
// groups (an ISP, a country, a continent), each with an access-link
// class (asymmetric bandwidth, latency, loss) for its member nodes, plus
// pairwise latencies between groups. There is deliberately no core-
// network model — the paper's argument is that the edge link is the
// bottleneck for peer-to-peer workloads.
package topo

import (
	"fmt"
	"sort"
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
// Groups may nest (a /24 ISP inside a /16 country); latencies can be
// declared at any level and the most specific declared pair wins.
type Group struct {
	Name   string
	Prefix ip.Prefix
	Class  LinkClass
	Nodes  int // number of addressable nodes; 0 for pure container groups
}

// Topology is a collection of groups and pairwise group latencies.
type Topology struct {
	groups  []*Group
	byName  map[string]*Group
	latency map[[2]string]time.Duration
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		byName:  make(map[string]*Group),
		latency: make(map[[2]string]time.Duration),
	}
}

// AddGroup registers a group. It returns an error for duplicate names,
// or if the prefix partially overlaps an existing group (full nesting is
// allowed, straddling is not).
func (t *Topology) AddGroup(g Group) (*Group, error) {
	if _, dup := t.byName[g.Name]; dup {
		return nil, fmt.Errorf("topo: duplicate group %q", g.Name)
	}
	for _, other := range t.groups {
		if g.Prefix.Overlaps(other.Prefix) &&
			!g.Prefix.ContainsPrefix(other.Prefix) && !other.Prefix.ContainsPrefix(g.Prefix) {
			return nil, fmt.Errorf("topo: group %q prefix %v straddles %q (%v)",
				g.Name, g.Prefix, other.Name, other.Prefix)
		}
	}
	// Nodes are addressed from offset 1 (the base address is the
	// network's own), so a prefix of size s holds s-1 of them.
	if uint64(g.Nodes) >= g.Prefix.Size() {
		return nil, fmt.Errorf("topo: group %q wants %d nodes in %v, which holds %d",
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
// directions. Both groups must exist.
func (t *Topology) SetLatency(a, b string, d time.Duration) error {
	if _, ok := t.byName[a]; !ok {
		return fmt.Errorf("topo: unknown group %q", a)
	}
	if _, ok := t.byName[b]; !ok {
		return fmt.Errorf("topo: unknown group %q", b)
	}
	t.latency[[2]string{a, b}] = d
	t.latency[[2]string{b, a}] = d
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

// LeafGroups returns the groups that actually hold nodes (Nodes > 0).
func (t *Topology) LeafGroups() []*Group {
	var leaves []*Group
	for _, g := range t.groups {
		if g.Nodes > 0 {
			leaves = append(leaves, g)
		}
	}
	return leaves
}

// chain returns the groups containing a, most specific first.
func (t *Topology) chain(a ip.Addr) []*Group {
	var c []*Group
	for _, g := range t.groups {
		if g.Prefix.Contains(a) {
			c = append(c, g)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].Prefix.Bits() > c[j].Prefix.Bits() })
	return c
}

// Locate returns the most specific group containing a, or nil.
func (t *Topology) Locate(a ip.Addr) *Group {
	c := t.chain(a)
	if len(c) == 0 {
		return nil
	}
	return c[0]
}

// GroupLatency returns the inter-group one-way latency between the
// groups of src and dst: the latency declared for the most specific
// (src-group, dst-group) ancestor pair. Nodes under the same leaf group
// with no declared pair get zero (they only pay their access links).
func (t *Topology) GroupLatency(src, dst ip.Addr) time.Duration {
	if len(t.latency) == 0 {
		return 0 // asked once per transmitted message: no chains, no allocation
	}
	sc := t.chain(src)
	dc := t.chain(dst)
	for _, sg := range sc {
		for _, dg := range dc {
			if d, ok := t.latency[[2]string{sg.Name, dg.Name}]; ok {
				return d
			}
		}
	}
	return 0
}

// TotalNodes sums the node counts of all leaf groups.
func (t *Topology) TotalNodes() int {
	n := 0
	for _, g := range t.LeafGroups() {
		n += g.Nodes
	}
	return n
}

// Fig7 builds the exact topology of the paper's Fig 7: three top-level
// regions (10.1/16 with three DSL/modem ISPs, 10.2/16 campus, 10.3/16
// office) with 100 ms latency between the 10.1 ISPs, and 400 ms / 600 ms
// / 1 s between regions.
func Fig7() *Topology {
	t := New()
	t.MustAddGroup(Group{Name: "region-1", Prefix: ip.MustParsePrefix("10.1.0.0/16")})
	t.MustAddGroup(Group{Name: "isp-modem", Prefix: ip.MustParsePrefix("10.1.1.0/24"), Class: Modem, Nodes: 250})
	t.MustAddGroup(Group{Name: "isp-slow-dsl", Prefix: ip.MustParsePrefix("10.1.2.0/24"), Class: SlowDSL, Nodes: 250})
	t.MustAddGroup(Group{Name: "isp-fast-dsl", Prefix: ip.MustParsePrefix("10.1.3.0/24"), Class: FastDSL, Nodes: 250})
	t.MustAddGroup(Group{Name: "region-2", Prefix: ip.MustParsePrefix("10.2.0.0/16"), Class: Campus, Nodes: 1000})
	t.MustAddGroup(Group{Name: "region-3", Prefix: ip.MustParsePrefix("10.3.0.0/16"), Class: Office, Nodes: 1000})
	t.MustSetLatency("isp-modem", "isp-slow-dsl", 100*time.Millisecond)
	t.MustSetLatency("isp-modem", "isp-fast-dsl", 100*time.Millisecond)
	t.MustSetLatency("isp-slow-dsl", "isp-fast-dsl", 100*time.Millisecond)
	t.MustSetLatency("region-1", "region-2", 400*time.Millisecond)
	t.MustSetLatency("region-1", "region-3", 600*time.Millisecond)
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
