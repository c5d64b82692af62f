// Package gossip implements an epidemic dissemination protocol over
// the emulated network — a third peer-to-peer system for the platform,
// in the Demers et al. (PODC '87) tradition: push rumor mongering with
// a fanout parameter, plus periodic anti-entropy exchanges that repair
// missed updates.
//
// Gossip protocols are the standard subject for dissemination-latency
// studies: how fast does an update reach every node, as a function of
// fanout, population size and edge-link latency? The platform answers
// those questions deterministically.
package gossip

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// Port is the gossip protocol port.
const Port ip.Port = 4100

// Update is one disseminated item.
type Update struct {
	ID uint64
}

// byID orders updates by ID. The sorts here go through package slices:
// sort.Slice's reflection-built swapper was the deepest call a node's
// rounds task makes, and on top of the frames every coroutine starts
// with it took that task's stack from 2 to 4 KiB for good.
func byID(a, b Update) int { return cmp.Compare(a.ID, b.ID) }

// wire message kinds.
type msgKind int

const (
	kindPush msgKind = iota // rumor push: a batch of updates
	kindDigest
	kindDigestReply
)

type wireMsg struct {
	Kind    msgKind
	Updates []Update
	Have    []uint64 // digest: known update ids
}

func (m wireMsg) wireSize() int {
	return 16 + 64*len(m.Updates) + 8*len(m.Have)
}

// Textbook protocol timing.
const (
	// hotRounds is how many gossip rounds a rumor stays hot (pushed).
	hotRounds = 3
	// round is the gossip round period.
	round = time.Second
	// antiEntropy is the period of digest exchanges.
	antiEntropy = 10 * time.Second
)

// Node is one gossip participant.
type Node struct {
	h      *vnet.Host
	fanout int           // random peers that receive each fresh rumor
	peers  []ip.Endpoint // full membership view (static, by experiment design)
	perm   []int         // fanoutPrefix's scratch, reused every round

	known map[uint64]Update
	hot   map[uint64]int // rounds remaining as a hot rumor
	alive bool

	// boxes holds the boxes this node's pushes, digests and digest
	// replies travel in (vnet.Box); each receiver hands its box back.
	boxes vnet.BoxPool[wireMsg]

	// Stats counts protocol activity.
	Stats NodeStats
}

// NodeStats counts gossip traffic.
type NodeStats struct {
	Pushes uint64
}

// NewNode creates a gossip node on host h that pushes each fresh rumor
// to fanout random peers.
func NewNode(h *vnet.Host, fanout int) *Node {
	return &Node{
		h:      h,
		fanout: fanout,
		known:  make(map[uint64]Update),
		hot:    make(map[uint64]int),
	}
}

// SetPeers installs the membership view.
func (n *Node) SetPeers(peers []ip.Endpoint) { n.peers = peers }

// Knows reports whether the node has seen update id.
func (n *Node) Knows(id uint64) bool {
	_, ok := n.known[id]
	return ok
}

// Start launches the server and the gossip/anti-entropy loops.
func (n *Node) Start() {
	n.alive = true
	k := n.h.Network().Kernel()
	name := "gossip-" + n.h.Addr().String()
	k.Go(name+"/server", n.serve)
	k.Go(name+"/rounds", func(p *sim.Proc) {
		for n.alive {
			p.Sleep(round)
			n.gossipRound(p)
		}
	})
	k.Go(name+"/anti-entropy", func(p *sim.Proc) {
		for n.alive {
			p.Sleep(antiEntropy)
			n.antiEntropy(p)
		}
	})
}

// Publish introduces a new update at this node.
func (n *Node) Publish(u Update) {
	n.learn(u)
}

// learn ingests an update, marking it hot if new.
func (n *Node) learn(u Update) {
	if _, dup := n.known[u.ID]; dup {
		return
	}
	n.known[u.ID] = u
	n.hot[u.ID] = hotRounds
}

// gossipRound pushes all hot rumors to fanout random peers.
func (n *Node) gossipRound(p *sim.Proc) {
	if len(n.hot) == 0 || len(n.peers) == 0 {
		return
	}
	batch := n.collectHot()
	rng := n.h.Network().Kernel().Rand()
	n.perm = fanoutPrefix(rng, n.perm, len(n.peers), n.fanout)
	for _, i := range n.perm {
		target := n.peers[i]
		if target.Addr == n.h.Addr() {
			continue
		}
		n.Stats.Pushes++
		n.sendAsync(p, target, wireMsg{Kind: kindPush, Updates: batch})
	}
}

// fanoutPrefix returns rng.Perm(n)[:min(fanout, n)] in buf's storage.
// It makes the same Intn(i+1) draw as Perm for every i < n, so the
// prefix and the RNG state it leaves are Perm's, but it only keeps the
// first fanout slots: Perm's swap for i < fanout, and for i ≥ fanout
// only the write m[j] = i when it lands in the prefix (what Perm moves
// to m[i] never comes back into it). Once buf holds fanout slots a
// round draws without allocating.
func fanoutPrefix(rng *rand.Rand, buf []int, n, fanout int) []int {
	fanout = min(fanout, n)
	buf = slices.Grow(buf[:0], fanout)[:fanout]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < fanout {
			buf[i] = buf[j]
			buf[j] = i
		} else if j < fanout {
			buf[j] = i
		}
	}
	return buf
}

// antiEntropy exchanges digests with one random peer and pulls what is
// missing (resolves rumors that died before full coverage).
func (n *Node) antiEntropy(p *sim.Proc) {
	if len(n.peers) == 0 {
		return
	}
	rng := n.h.Network().Kernel().Rand()
	target := n.peers[rng.Intn(len(n.peers))]
	if target.Addr == n.h.Addr() {
		return
	}
	n.sendAsync(p, target, wireMsg{Kind: kindDigest, Have: n.digestIDs()})
}

// collectHot drains one round of hotness from every hot rumor and
// returns the push payload in ID order. The hot set is a map; sorting
// here keeps the wire payload (and the peer's learn order) independent
// of Go's randomized iteration order.
func (n *Node) collectHot() []Update {
	var batch []Update
	//lint:allow maporder collected batch is sorted by ID below before use
	for id, rounds := range n.hot {
		batch = append(batch, n.known[id])
		if rounds <= 1 {
			delete(n.hot, id)
		} else {
			n.hot[id] = rounds - 1
		}
	}
	slices.SortFunc(batch, byID)
	return batch
}

// digestIDs returns every known update ID in ascending order — the
// anti-entropy digest payload, sorted for the same reason as
// collectHot.
func (n *Node) digestIDs() []uint64 {
	have := make([]uint64, 0, len(n.known))
	//lint:allow maporder collected digest is sorted below before use
	for id := range n.known {
		have = append(have, id)
	}
	slices.Sort(have)
	return have
}

// missingFor returns the updates a peer with the given digest lacks,
// in ID order. A digest is digestIDs' output, ascending, so membership
// is a binary search: a set built from it was the deepest call under a
// serving task and took its stack past the first 2 KiB (DESIGN
// decision 11).
func (n *Node) missingFor(have []uint64) []Update {
	var missing []Update
	//lint:allow maporder collected updates are sorted by ID below before use
	for id, u := range n.known {
		if _, found := slices.BinarySearch(have, id); !found {
			missing = append(missing, u)
		}
	}
	slices.SortFunc(missing, byID)
	return missing
}

// sendAsync delivers one message over a transient connection in a task
// of its own; a digest waits up to 10 s for its reply, and a failed one
// is left to later rounds. The message goes into its box here, so the
// task captures a pointer and not the message: a per-message task's
// frames must fit its first 2 KiB stack (DESIGN decision 11).
func (n *Node) sendAsync(p *sim.Proc, to ip.Endpoint, m wireMsg) {
	size, b, wait := m.wireSize(), n.boxes.Get(m), time.Duration(0)
	if m.Kind == kindDigest {
		wait = 10 * time.Second
	}
	p.Go("gossip-send", func(p *sim.Proc) {
		n.h.Call(p, to, size, b, wait, n.learnReply)
	})
}

// learnReply learns the updates of a digest's reply.
func (n *Node) learnReply(meta any) {
	if b, isMsg := meta.(*vnet.Box[wireMsg]); isMsg {
		for _, u := range b.Take().Updates {
			n.learn(u)
		}
	}
}

// serve answers inbound pushes and digests, one per connection.
func (n *Node) serve(p *sim.Proc) {
	l, err := n.h.Listen(p, Port)
	if err != nil {
		return
	}
	l.Serve(p, "gossip-conn", func(p *sim.Proc, c *vnet.Conn) {
		c.Answer(p, 10*time.Second, n.answer)
		c.Close(p)
	})
}

// answer takes an inbound message out of its box and acts on it: a
// push's updates are learned, and a digest is answered with the
// updates its sender lacks, boxed, with their wire size. The reply is
// built here and sent by Answer, so the digest's frames are gone
// before the send's begin.
func (n *Node) answer(_ *sim.Proc, _ ip.Endpoint, req any) (int, any) {
	b, isMsg := req.(*vnet.Box[wireMsg])
	if !isMsg {
		return 0, nil
	}
	m := b.Take()
	if !n.alive {
		return 0, nil
	}
	switch m.Kind {
	case kindPush:
		for _, u := range m.Updates {
			n.learn(u)
		}
	case kindDigest:
		// Symmetric repair: learn what the peer has that we lack at
		// the next anti-entropy round (pull-only here).
		r := wireMsg{Kind: kindDigestReply, Updates: n.missingFor(m.Have)}
		return r.wireSize(), n.boxes.Get(r)
	}
	return 0, nil
}

// String describes the node.
func (n *Node) String() string {
	return fmt.Sprintf("gossip(%v: %d known, %d hot)", n.h.Addr(), len(n.known), len(n.hot))
}
