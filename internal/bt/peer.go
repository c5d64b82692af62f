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
// a piece message is charged its block's length. Every bt message,
// a web seed's replies too, travels in a box from its sender's pool
// (vnet.Box): passing Msg by value through the `any` metadata boxed
// ~100 B per send, the dominant allocation at swarm scale.
func (pr *peer) send(p *sim.Proc, m Msg) error {
	return pr.conn.SendMeta(p, m.WireSize(), pr.cl.boxes.Get(m))
}

// sendHandshake transmits the 68-byte handshake. It and
// recvHandshake take the handshake by pointer, so the 20-byte info hash
// is not copied into the frames of the per-connection handshake tasks,
// where every copy is a step towards a second stack (DESIGN decision
// 11).
func sendHandshake(p *sim.Proc, c *vnet.Conn, hs *Handshake) error {
	return c.SendMeta(p, HandshakeSize, *hs)
}

// recvHandshake blocks, with a deadline, for the peer's handshake and
// reports whether it arrived and is want.
func recvHandshake(p *sim.Proc, c *vnet.Conn, timeout time.Duration, want *Handshake) bool {
	meta, ok, err := c.RecvTimeout(p, timeout)
	if err != nil || !ok {
		return false
	}
	hs, isHS := meta.(Handshake)
	return isHS && hs.InfoHash == want.InfoHash
}
