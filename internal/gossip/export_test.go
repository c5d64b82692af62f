package gossip

// Stop halts the node.
func (n *Node) Stop() { n.alive = false }
