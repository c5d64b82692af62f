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
	ID      uint64
	Origin  ip.Addr
	Payload string
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

// Config tunes the protocol.
type Config struct {
	// Fanout is how many random peers receive each fresh rumor.
	Fanout int
	// HotRounds is how many gossip rounds a rumor stays hot (pushed).
	HotRounds int
	// Round is the gossip round period.
	Round time.Duration
	// AntiEntropy is the period of digest exchanges (0 disables).
	AntiEntropy time.Duration
}

// DefaultConfig returns textbook parameters.
func DefaultConfig() Config {
	return Config{
		Fanout:      3,
		HotRounds:   3,
		Round:       time.Second,
		AntiEntropy: 10 * time.Second,
	}
}

// Node is one gossip participant.
type Node struct {
	h     *vnet.Host
	cfg   Config
	peers []ip.Endpoint // full membership view (static, by experiment design)

	known map[uint64]Update
	hot   map[uint64]int // rounds remaining as a hot rumor
	alive bool

	// FirstSeen records when each update arrived (the dissemination-
	// latency measurement).
	FirstSeen map[uint64]sim.Time

	// Stats counts protocol activity.
	Stats NodeStats
}

// NodeStats counts gossip traffic.
type NodeStats struct {
	Pushes       uint64
	Digests      uint64
	UpdatesRecvd uint64
	Duplicates   uint64
}

// NewNode creates a gossip node on host h.
func NewNode(h *vnet.Host, cfg Config) *Node {
	return &Node{
		h:         h,
		cfg:       cfg,
		known:     make(map[uint64]Update),
		hot:       make(map[uint64]int),
		FirstSeen: make(map[uint64]sim.Time),
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
			p.Sleep(n.cfg.Round)
			n.gossipRound(p)
		}
	})
	if n.cfg.AntiEntropy > 0 {
		k.Go(name+"/anti-entropy", func(p *sim.Proc) {
			for n.alive {
				p.Sleep(n.cfg.AntiEntropy)
				n.antiEntropy(p)
			}
		})
	}
}

// Stop halts the node.
func (n *Node) Stop() { n.alive = false }

// Publish introduces a new update at this node.
func (n *Node) Publish(p *sim.Proc, u Update) {
	n.learn(p.Now(), u)
}

// learn ingests an update, marking it hot if new.
func (n *Node) learn(now sim.Time, u Update) bool {
	if _, dup := n.known[u.ID]; dup {
		n.Stats.Duplicates++
		return false
	}
	n.known[u.ID] = u
	n.hot[u.ID] = n.cfg.HotRounds
	n.FirstSeen[u.ID] = now
	n.Stats.UpdatesRecvd++
	return true
}

// gossipRound pushes all hot rumors to Fanout random peers.
func (n *Node) gossipRound(p *sim.Proc) {
	if len(n.hot) == 0 || len(n.peers) == 0 {
		return
	}
	batch := n.collectHot()
	rng := n.h.Network().Kernel().Rand()
	fanout := n.cfg.Fanout
	if fanout > len(n.peers) {
		fanout = len(n.peers)
	}
	for _, i := range rng.Perm(len(n.peers))[:fanout] {
		target := n.peers[i]
		if target.Addr == n.h.Addr() {
			continue
		}
		n.Stats.Pushes++
		n.sendAsync(p, target, wireMsg{Kind: kindPush, Updates: batch})
	}
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
	n.Stats.Digests++
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
// in ID order.
func (n *Node) missingFor(have []uint64) []Update {
	peerHas := make(map[uint64]bool, len(have))
	for _, id := range have {
		peerHas[id] = true
	}
	var missing []Update
	//lint:allow maporder collected updates are sorted by ID below before use
	for id, u := range n.known {
		if !peerHas[id] {
			missing = append(missing, u)
		}
	}
	slices.SortFunc(missing, byID)
	return missing
}

// sendAsync delivers one message over a transient connection.
func (n *Node) sendAsync(p *sim.Proc, to ip.Endpoint, m wireMsg) {
	p.Go("gossip-send", func(p *sim.Proc) {
		c, err := n.h.Dial(p, to)
		if err != nil {
			return
		}
		defer c.Close(p)
		c.SendMeta(p, m.wireSize(), m)
		if m.Kind == kindDigest {
			// Wait for the reply carrying missing updates.
			pk, ok, err := c.RecvTimeout(p, 10*time.Second)
			if err != nil || !ok {
				return
			}
			if reply, isMsg := pk.Meta.(wireMsg); isMsg {
				for _, u := range reply.Updates {
					n.learn(p.Now(), u)
				}
			}
		}
	})
}

// serve handles inbound pushes and digests.
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
		p.Go("gossip-conn", func(p *sim.Proc) {
			defer c.Close(p)
			pk, ok, err := c.RecvTimeout(p, 10*time.Second)
			if err != nil || !ok || !n.alive {
				return
			}
			m, isMsg := pk.Meta.(wireMsg)
			if !isMsg {
				return
			}
			switch m.Kind {
			case kindPush:
				for _, u := range m.Updates {
					n.learn(p.Now(), u)
				}
			case kindDigest:
				reply := wireMsg{Kind: kindDigestReply, Updates: n.missingFor(m.Have)}
				c.SendMeta(p, reply.wireSize(), reply)
				// Symmetric repair: learn what the peer has that we
				// lack at the next anti-entropy round (pull-only here).
			}
		})
	}
}

// String describes the node.
func (n *Node) String() string {
	return fmt.Sprintf("gossip(%v: %d known, %d hot)", n.h.Addr(), len(n.known), len(n.hot))
}
