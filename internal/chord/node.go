package chord

import (
	"errors"
	"time"

	"repro/internal/ip"
	"repro/internal/obs"
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

	// boxes holds the boxes this node's requests and replies travel in
	// (vnet.Box); the receiving node returns each one.
	boxes vnet.BoxPool[rpcMsg]

	// timeouts counts this node's failed and timed-out RPCs into the
	// network's registry; every node of a network shares the series.
	timeouts *obs.Counter
}

// NewNode creates a Chord node on host h. Call Create or Join to start
// it.
func NewNode(h *vnet.Host) *Node {
	n := &Node{
		h:        h,
		id:       HashAddr(h.Addr()),
		timeouts: h.Network().Obs().Counter("p2plab_dht_timeouts_total", "timeouts", "Chord RPCs that timed out."),
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
		m := rpcMsg{Kind: rpcFindSuccessor, Target: n.id}
		if err := n.call(p, bootstrap, &m); err != nil || m.Node.IsZero() {
			return
		}
		if m.Node.ID != n.id {
			n.successors[0] = m.Node
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
	l.Serve(p, "chord-rpc", func(p *sim.Proc, c *vnet.Conn) {
		c.Answer(p, rpcTimeout, n.answer)
		c.Close(p)
	})
}

// answer replies to the request req; dead nodes do not answer, and
// their callers time out. A forwarding hop dials from under answer,
// dispatch and call, which share one message by pointer to keep their
// frames small.
func (n *Node) answer(p *sim.Proc, _ ip.Endpoint, req any) (int, any) {
	var m rpcMsg
	if !take(req, &m) || !n.alive {
		return 0, nil
	}
	n.dispatch(p, &m)
	m.Kind = rpcReply
	return rpcSize, n.box(&m)
}

// recv reads the reply c carries into *m and reports whether one
// arrived and whether the wait failed (a timeout or a closed
// connection). recv, take and box keep a message's copies out of the
// frames a forwarding hop dials and sends under.
//
//go:noinline
func recv(p *sim.Proc, c *vnet.Conn, m *rpcMsg) (got, failed bool) {
	meta, ok, err := c.RecvTimeout(p, rpcTimeout)
	if err != nil || !ok {
		return false, true
	}
	return take(meta, m), false
}

// take moves the message boxed in meta, if it holds one, into *m.
//
//go:noinline
func take(meta any, m *rpcMsg) bool {
	b, isMsg := meta.(*vnet.Box[rpcMsg])
	if isMsg {
		*m = b.Take()
	}
	return isMsg
}

// box returns a box from n's pool holding a copy of *m.
//
//go:noinline
func (n *Node) box(m *rpcMsg) *vnet.Box[rpcMsg] {
	return n.boxes.Get(*m)
}

// dispatch executes the request *m against local state and overwrites
// it with the reply. A find_successor request for m.Target, m.Hops hops
// into the lookup, is forwarded through the finger table when the node
// cannot answer it (recursive routing, each hop a nested RPC).
func (n *Node) dispatch(p *sim.Proc, m *rpcMsg) {
	switch m.Kind {
	case rpcFindSuccessor:
		target, hops := m.Target, m.Hops
		succ := n.successors[0]
		if !Between(target, n.id, succ.ID) && succ.ID != n.id {
			if next := n.closestPreceding(target); next.ID != n.id && !next.IsZero() {
				*m = rpcMsg{}
				m.Kind, m.Target, m.Hops = rpcFindSuccessor, target, hops+1
				if n.call(p, next.Addr, m) == nil {
					return
				}
				// Fall back to the successor pointer on a dead finger.
			}
		}
		*m = rpcMsg{}
		m.Node, m.OK, m.Hops = succ, true, hops
	case rpcGetPredecessor:
		*m = rpcMsg{Node: n.predecessor, OK: true}
	case rpcNotify:
		n.notify(m.Node)
		*m = rpcMsg{OK: true}
	case rpcPing:
		*m = rpcMsg{OK: true}
	default:
		*m = rpcMsg{OK: false}
	}
}

// closestPreceding returns the finger-table entry closest to target
// from above n. Inlined, its copies of the entries sat in dispatch's
// frame, under a forwarding hop's dial.
//
//go:noinline
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
	m := rpcMsg{Kind: rpcGetPredecessor}
	if n.call(p, succ.Addr, &m) != nil {
		n.dropSuccessor()
		return
	}
	x := m.Node
	if !x.IsZero() && BetweenOpen(x.ID, n.id, succ.ID) {
		n.successors[0] = x
	}
	m = rpcMsg{Kind: rpcNotify, Node: n.ref}
	n.call(p, n.successors[0].Addr, &m)
	n.refreshSuccessorList(p)
}

// refreshSuccessorList copies the successor's list, shifted.
func (n *Node) refreshSuccessorList(p *sim.Proc) {
	// Simplified: ping successors in order and keep the alive prefix;
	// the full list is rebuilt via stabilize rounds. We extend the list
	// with the successor's successor when short.
	succ := n.successors[0]
	if len(n.successors) < successorListLen {
		m := rpcMsg{Kind: rpcFindSuccessor, Target: succ.ID + 1}
		if n.call(p, succ.Addr, &m) == nil && !m.Node.IsZero() && m.Node.ID != n.id {
			for _, s := range n.successors {
				if s.ID == m.Node.ID {
					return
				}
			}
			n.successors = append(n.successors, m.Node)
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
	m := rpcMsg{Kind: rpcFindSuccessor, Target: fingerStart(n.id, i)}
	n.dispatch(p, &m)
	if m.OK && !m.Node.IsZero() {
		n.finger[i] = m.Node
	}
}

// checkPredecessor clears a dead predecessor pointer.
func (n *Node) checkPredecessor(p *sim.Proc) {
	if n.predecessor.IsZero() {
		return
	}
	m := rpcMsg{Kind: rpcPing}
	if n.call(p, n.predecessor.Addr, &m) != nil {
		n.predecessor = NodeRef{}
	}
}

// errRPC is returned for failed or timed-out calls.
var errRPC = errors.New("chord: rpc failed")

// call performs one request/response exchange with a remote node: it
// sends the request *m and overwrites *m with the reply. On an error
// *m is left as it was sent. It reads by hand: through vnet.Host.Call,
// a forwarding hop's frames read 3 136 B a task in TestBurstStacks,
// past its 3 072 bound (DESIGN decision 11).
func (n *Node) call(p *sim.Proc, to ip.Endpoint, m *rpcMsg) error {
	if to.Addr == n.h.Addr() {
		// Local fast path: no network.
		n.dispatch(p, m)
		return nil
	}
	c, err := n.h.Dial(p, to)
	if err != nil {
		n.timeouts.Inc()
		return errRPC
	}
	err = errRPC
	if c.SendMeta(p, rpcSize, n.box(m)) == nil {
		got, failed := recv(p, c, m)
		if failed {
			n.timeouts.Inc()
		}
		if got {
			err = nil
		}
	}
	c.Close(p)
	return err
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
	m := rpcMsg{Kind: rpcFindSuccessor, Target: HashKey(key)}
	n.dispatch(p, &m)
	if !m.OK || m.Node.IsZero() {
		return LookupResult{}, errRPC
	}
	return LookupResult{
		Owner:   m.Node,
		Hops:    m.Hops,
		Latency: time.Duration(p.Now().Sub(start)),
	}, nil
}
