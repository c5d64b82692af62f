package bt

import (
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// peer is the client-side state of one remote peer connection,
// following the wire protocol's four-flag model.
type peer struct {
	conn *vnet.Conn
	addr ip.Addr // remote host identity (one client per host)
	bits *Bitfield

	amChoking      bool // we choke them
	amInterested   bool // we want their pieces
	peerChoking    bool // they choke us
	peerInterested bool // they want ours

	// inflight tracks requests we sent and when, for timeout re-issue.
	// A flat slice, not a map: the pipeline depth bounds it to a few
	// dozen entries, where a linear scan of one contiguous array beats
	// hashing — and 10k peers × dozens of connections each would
	// otherwise keep hundreds of thousands of live maps for the GC to
	// mark.
	inflight []inflightEntry

	downRate RateEstimator // payload bytes they sent us
	upRate   RateEstimator // payload bytes we sent them

	// idx is this peer's position in Client.peers (-1 until registered),
	// so departure does not scan the peer slice.
	idx int
	// cl is the owning client, set at admission: send draws message
	// boxes from its pool.
	cl *Client
	// useful counts pieces the peer has that we still need — the
	// interest predicate maintained incrementally on bitfield/have
	// arrival and local piece completion, replacing an O(pieces) rescan
	// per wire event.
	useful int
	// unchokeStamp marks membership in the current rechoke round's
	// unchoke set (== Client.rechokeRound), replacing a per-round map.
	unchokeStamp int

	optimistic bool
	closed     bool
	// webseed marks a pseudo-peer backed by a WebSeed block server: full
	// bitfield by construction, never choking, outside the swarm
	// connection budgets, and no interest/Have/choke wire traffic.
	webseed bool
}

func newPeer(conn *vnet.Conn, addr ip.Addr, numPieces int) *peer {
	return &peer{
		conn:        conn,
		addr:        addr,
		bits:        NewBitfield(numPieces),
		amChoking:   true,
		peerChoking: true,
		idx:         -1,
	}
}

// inflightEntry is one outstanding request: the block (piece index and
// block number within the piece) and the instant it was issued. 32-bit
// fields keep an entry at 16 bytes: every connection holds a pipeline
// of them.
type inflightEntry struct {
	piece, block int32
	at           sim.Time
}

// inflightHas reports whether block b of piece pi has an outstanding
// request.
func (pr *peer) inflightHas(pi, b int) bool {
	for _, e := range pr.inflight {
		if int(e.piece) == pi && int(e.block) == b {
			return true
		}
	}
	return false
}

// inflightDel removes the entry for block b of piece pi if present
// (swap-remove; the set is unordered) and reports whether it was there.
func (pr *peer) inflightDel(pi, b int) bool {
	for i, e := range pr.inflight {
		if int(e.piece) == pi && int(e.block) == b {
			last := len(pr.inflight) - 1
			pr.inflight[i] = pr.inflight[last]
			pr.inflight = pr.inflight[:last]
			return true
		}
	}
	return false
}

// send transmits a wire message as a vnet value of spec-accurate size;
// a piece message is charged its block's length.
func (pr *peer) send(p *sim.Proc, m Msg) error {
	return pr.conn.SendMeta(p, m.WireSize(), pr.cl.newBox(m))
}

// sendHandshake transmits the 68-byte handshake.
func sendHandshake(p *sim.Proc, c *vnet.Conn, hs Handshake) error {
	return c.SendMeta(p, HandshakeSize, hs)
}

// recvHandshake blocks for the peer's handshake with a deadline.
func recvHandshake(p *sim.Proc, c *vnet.Conn, timeout time.Duration) (Handshake, bool) {
	pk, ok, err := c.RecvTimeout(p, timeout)
	if err != nil || !ok {
		return Handshake{}, false
	}
	hs, isHS := pk.Meta.(Handshake)
	return hs, isHS
}

// msgBox boxes a wire Msg behind a pooled pointer for its trip across
// the virtual network: passing Msg by value through the `any` metadata
// boxed ~100 B per send, the dominant allocation at swarm scale. The
// receiving client's sink copies the Msg out and returns the box to
// the owning client's free list. The release crosses clients, but
// never kernels — and one kernel serializes all execution, so the
// pools need no locking. Boxes on dropped messages are simply
// garbage-collected.
type msgBox struct {
	m     Msg
	owner *Client
	next  *msgBox
}

// newBox draws a box from the client's pool.
func (c *Client) newBox(m Msg) *msgBox {
	b := c.freeBox
	if b == nil {
		b = &msgBox{owner: c}
	} else {
		c.freeBox = b.next
	}
	b.m, b.next = m, nil
	return b
}

// release clears the payload (so pooled boxes pin no slices) and
// returns the box to its owner's pool.
func (b *msgBox) release() {
	b.m = Msg{}
	b.next = b.owner.freeBox
	b.owner.freeBox = b
}
