package bt

import (
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// blockKey identifies one block of the torrent.
type blockKey struct {
	piece, begin int
}

// pack encodes the key as one word so the request-tracking maps use the
// runtime's fast uint64 paths. Piece index and byte offset both fit in
// 32 bits (a piece is at most a few MiB).
func (bk blockKey) pack() uint64 {
	return uint64(uint32(bk.piece))<<32 | uint64(uint32(bk.begin))
}

// unpackBlockKey inverts pack.
func unpackBlockKey(k uint64) blockKey {
	return blockKey{piece: int(uint32(k >> 32)), begin: int(uint32(k))}
}

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

	// inflight tracks requests we sent and when, for timeout re-issue,
	// keyed by blockKey.pack(). A flat slice, not a map: the pipeline
	// depth bounds it to a few dozen entries, where a linear scan of one
	// contiguous array beats hashing — and 10k peers × dozens of
	// connections each would otherwise keep hundreds of thousands of
	// live maps for the GC to mark.
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

// inflightEntry is one outstanding request: the packed block key and
// the instant it was issued.
type inflightEntry struct {
	bk uint64
	at sim.Time
}

// inflightHas reports whether block bk has an outstanding request.
func (pr *peer) inflightHas(bk uint64) bool {
	for i := range pr.inflight {
		if pr.inflight[i].bk == bk {
			return true
		}
	}
	return false
}

// inflightAdd records an outstanding request. The caller guarantees bk
// is not already present (request issue paths check first).
func (pr *peer) inflightAdd(bk uint64, at sim.Time) {
	pr.inflight = append(pr.inflight, inflightEntry{bk: bk, at: at})
}

// inflightDel removes block bk's entry if present (swap-remove; the
// set is unordered) and reports whether it was there.
func (pr *peer) inflightDel(bk uint64) bool {
	for i := range pr.inflight {
		if pr.inflight[i].bk == bk {
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
