package chord

import (
	"errors"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// Port is the Chord protocol port.
const Port ip.Port = 4000

// rpcKind discriminates protocol messages.
type rpcKind int

const (
	rpcFindSuccessor rpcKind = iota
	rpcGetPredecessor
	rpcNotify
	rpcPing
	rpcReply
)

// rpcMsg is one Chord protocol message (request or reply).
type rpcMsg struct {
	Kind   rpcKind
	Target ID      // find_successor
	Node   NodeRef // notify / replies carrying a node
	OK     bool
	Hops   int // accumulated forwarding hops (diagnostics)
}

// rpcSize approximates a message's wire footprint.
const rpcSize = 48

// Maintenance-protocol settings: the Chord paper's simulation settings,
// scaled to interactive experiment lengths.
const (
	// stabilize is the period of the stabilize/fix-fingers loop.
	stabilize = 2 * time.Second
	// rpcTimeout bounds each remote call.
	rpcTimeout = 10 * time.Second
	// successorListLen is the replication factor of the successor list
	// (fault tolerance under churn).
	successorListLen = 8
)

// Node is one Chord participant running on a virtual host.
type Node struct {
	h   *vnet.Host
	id  ID
	ref NodeRef

	predecessor NodeRef
	successors  []NodeRef // successors[0] is THE successor
	finger      [M]NodeRef
	nextFinger  int

	alive bool

	// Stats accumulate over the node's lifetime.
	Stats NodeStats
}

// NodeStats counts protocol activity.
type NodeStats struct {
	Timeouts uint64
}

// NewNode creates a Chord node on host h. Call Create or Join to start
// it.
func NewNode(h *vnet.Host) *Node {
	n := &Node{
		h:  h,
		id: HashAddr(h.Addr()),
	}
	n.ref = NodeRef{ID: n.id, Addr: ip.Endpoint{Addr: h.Addr(), Port: Port}}
	n.successors = make([]NodeRef, 1, successorListLen)
	return n
}

// Ref returns the node's ring identity.
func (n *Node) Ref() NodeRef { return n.ref }

// Create starts the node as the first member of a new ring.
func (n *Node) Create() {
	n.successors[0] = n.ref
	n.start()
}

// Join starts the node and joins the ring known to bootstrap.
// It spawns the node's goroutines; the join completes asynchronously
// (the first stabilize round wires the node in).
func (n *Node) Join(bootstrap ip.Endpoint) {
	n.successors[0] = n.ref // provisional; fixed on first lookup
	n.start()
	k := n.h.Network().Kernel()
	k.Go("chord-join-"+n.h.Addr().String(), func(p *sim.Proc) {
		reply, err := n.call(p, bootstrap, rpcMsg{Kind: rpcFindSuccessor, Target: n.id})
		if err != nil || reply.Node.IsZero() {
			return
		}
		if reply.Node.ID != n.id {
			n.successors[0] = reply.Node
		}
	})
}

// start launches the server loop and the maintenance ticker.
func (n *Node) start() {
	n.alive = true
	k := n.h.Network().Kernel()
	name := "chord-" + n.h.Addr().String()
	k.Go(name+"/server", n.serve)
	k.Go(name+"/stabilize", func(p *sim.Proc) {
		for n.alive {
			p.Sleep(stabilize)
			if !n.alive {
				return
			}
			n.stabilize(p)
			n.fixFinger(p)
			n.checkPredecessor(p)
		}
	})
}

// serve accepts connections; each connection carries one request and
// gets one reply (the RPC style keeps the node loop simple and matches
// iterative Chord lookups).
func (n *Node) serve(p *sim.Proc) {
	l, err := n.h.Listen(p, Port)
	if err != nil {
		return
	}
	for {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		c := conn
		p.Go("chord-rpc", func(p *sim.Proc) { n.handle(p, c) })
	}
}

func (n *Node) handle(p *sim.Proc, c *vnet.Conn) {
	defer c.Close(p)
	if !n.alive {
		return // dead nodes do not answer: callers time out
	}
	pk, ok, err := c.RecvTimeout(p, rpcTimeout)
	if err != nil || !ok {
		return
	}
	req, isMsg := pk.Meta.(rpcMsg)
	if !isMsg || !n.alive {
		return
	}
	reply := n.dispatch(p, req)
	reply.Kind = rpcReply
	c.SendMeta(p, rpcSize, reply)
}

// dispatch executes one request against local state.
func (n *Node) dispatch(p *sim.Proc, req rpcMsg) rpcMsg {
	switch req.Kind {
	case rpcFindSuccessor:
		return n.findSuccessor(p, req.Target, req.Hops)
	case rpcGetPredecessor:
		return rpcMsg{Node: n.predecessor, OK: true}
	case rpcNotify:
		n.notify(req.Node)
		return rpcMsg{OK: true}
	case rpcPing:
		return rpcMsg{OK: true}
	default:
		return rpcMsg{OK: false}
	}
}

// findSuccessor resolves the successor of target, forwarding through
// the finger table (recursive routing, each hop a nested RPC).
func (n *Node) findSuccessor(p *sim.Proc, target ID, hops int) rpcMsg {
	succ := n.successors[0]
	if Between(target, n.id, succ.ID) || succ.ID == n.id {
		return rpcMsg{Node: succ, OK: true, Hops: hops}
	}
	next := n.closestPreceding(target)
	if next.ID == n.id || next.IsZero() {
		return rpcMsg{Node: succ, OK: true, Hops: hops}
	}
	reply, err := n.call(p, next.Addr, rpcMsg{Kind: rpcFindSuccessor, Target: target, Hops: hops + 1})
	if err != nil {
		// Fall back to the successor pointer on a dead finger.
		return rpcMsg{Node: succ, OK: true, Hops: hops}
	}
	return reply
}

// closestPreceding returns the finger-table entry closest to target
// from above n.
func (n *Node) closestPreceding(target ID) NodeRef {
	for i := M - 1; i >= 0; i-- {
		f := n.finger[i]
		if f.IsZero() {
			continue
		}
		if BetweenOpen(f.ID, n.id, target) {
			return f
		}
	}
	return n.successors[0]
}

// stabilize is Chord's periodic successor verification: ask the
// successor for its predecessor, adopt it if closer, then notify.
func (n *Node) stabilize(p *sim.Proc) {
	succ := n.successors[0]
	if succ.ID == n.id {
		// Alone, or provisional self-successor after join.
		if n.predecessor.IsZero() || n.predecessor.ID == n.id {
			return
		}
		n.successors[0] = n.predecessor
		succ = n.predecessor
	}
	reply, err := n.call(p, succ.Addr, rpcMsg{Kind: rpcGetPredecessor})
	if err != nil {
		n.dropSuccessor()
		return
	}
	x := reply.Node
	if !x.IsZero() && BetweenOpen(x.ID, n.id, succ.ID) {
		n.successors[0] = x
	}
	n.call(p, n.successors[0].Addr, rpcMsg{Kind: rpcNotify, Node: n.ref})
	n.refreshSuccessorList(p)
}

// refreshSuccessorList copies the successor's list, shifted.
func (n *Node) refreshSuccessorList(p *sim.Proc) {
	// Simplified: ping successors in order and keep the alive prefix;
	// the full list is rebuilt via stabilize rounds. We extend the list
	// with the successor's successor when short.
	succ := n.successors[0]
	if len(n.successors) < successorListLen {
		reply, err := n.call(p, succ.Addr, rpcMsg{Kind: rpcFindSuccessor, Target: succ.ID + 1})
		if err == nil && !reply.Node.IsZero() && reply.Node.ID != n.id {
			for _, s := range n.successors {
				if s.ID == reply.Node.ID {
					return
				}
			}
			n.successors = append(n.successors, reply.Node)
		}
	}
}

// dropSuccessor discards a dead successor, promoting the next one.
func (n *Node) dropSuccessor() {
	if len(n.successors) > 1 {
		n.successors = n.successors[1:]
		return
	}
	n.successors[0] = n.ref // last resort: point at self, wait for notify
}

// notify is called by a node that believes it is our predecessor.
func (n *Node) notify(candidate NodeRef) {
	if candidate.ID == n.id {
		return
	}
	if n.predecessor.IsZero() || BetweenOpen(candidate.ID, n.predecessor.ID, n.id) {
		n.predecessor = candidate
	}
}

// fixFinger refreshes one finger-table entry per round.
func (n *Node) fixFinger(p *sim.Proc) {
	i := n.nextFinger
	n.nextFinger = (n.nextFinger + 1) % M
	reply := n.findSuccessor(p, fingerStart(n.id, i), 0)
	if reply.OK && !reply.Node.IsZero() {
		n.finger[i] = reply.Node
	}
}

// checkPredecessor clears a dead predecessor pointer.
func (n *Node) checkPredecessor(p *sim.Proc) {
	if n.predecessor.IsZero() {
		return
	}
	if _, err := n.call(p, n.predecessor.Addr, rpcMsg{Kind: rpcPing}); err != nil {
		n.predecessor = NodeRef{}
	}
}

// errRPC is returned for failed or timed-out calls.
var errRPC = errors.New("chord: rpc failed")

// call performs one request/response exchange with a remote node.
func (n *Node) call(p *sim.Proc, to ip.Endpoint, req rpcMsg) (rpcMsg, error) {
	if to.Addr == n.h.Addr() {
		// Local fast path: no network.
		return n.dispatch(p, req), nil
	}
	c, err := n.h.Dial(p, to)
	if err != nil {
		n.Stats.Timeouts++
		return rpcMsg{}, errRPC
	}
	defer c.Close(p)
	if err := c.SendMeta(p, rpcSize, req); err != nil {
		return rpcMsg{}, errRPC
	}
	pk, ok, err := c.RecvTimeout(p, rpcTimeout)
	if err != nil || !ok {
		n.Stats.Timeouts++
		return rpcMsg{}, errRPC
	}
	reply, isMsg := pk.Meta.(rpcMsg)
	if !isMsg {
		return rpcMsg{}, errRPC
	}
	return reply, nil
}

// LookupResult reports one resolved lookup.
type LookupResult struct {
	//lint:allow unused chord's correctness tests check each lookup's owner against the ring
	Owner   NodeRef
	Hops    int
	Latency time.Duration
}

// Lookup resolves the node responsible for key, reporting routing hops
// and wall (virtual) latency — the measurement of the DHT experiments.
func (n *Node) Lookup(p *sim.Proc, key string) (LookupResult, error) {
	start := p.Now()
	reply := n.findSuccessor(p, HashKey(key), 0)
	if !reply.OK || reply.Node.IsZero() {
		return LookupResult{}, errRPC
	}
	return LookupResult{
		Owner:   reply.Node,
		Hops:    reply.Hops,
		Latency: time.Duration(p.Now().Sub(start)),
	}, nil
}
