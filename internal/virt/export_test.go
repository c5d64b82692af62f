package virt

import (
	"repro/internal/ip"
	"repro/internal/netem"
)

// Aliases returns the virtual-node addresses configured on this node's
// interface, in placement order.
func (pn *PhysNode) Aliases() []ip.Addr { return pn.aliases }

// NICOut and NICIn expose the physical interface pipes.
func (pn *PhysNode) NICOut() *netem.Pipe { return pn.nicOut }
func (pn *PhysNode) NICIn() *netem.Pipe  { return pn.nicIn }

// NodeOf returns the physical node hosting addr, or nil if unplaced.
func (c *Cluster) NodeOf(addr ip.Addr) *PhysNode { return c.placement[addr] }

// Rules returns the length of the node's firewall table.
func (pn *PhysNode) Rules() int { return pn.rules }

// Node returns the i-th physical node.
func (c *Cluster) Node(i int) *PhysNode { return c.nodes[i] }
