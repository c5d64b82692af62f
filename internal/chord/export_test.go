package chord

// ID returns the node's ring identifier.
func (n *Node) ID() ID { return n.id }

// Successor returns the current successor pointer.
func (n *Node) Successor() NodeRef { return n.successors[0] }

// Alive reports whether the node is running.
func (n *Node) Alive() bool { return n.alive }

// Leave stops the node abruptly (a churn departure: no graceful
// handoff, as in the Chord paper's failure model).
func (n *Node) Leave() { n.alive = false }
