package bt

import (
	"fmt"

	"repro/internal/ip"
)

// Accessors only the package's tests read.

// Done reports whether the download has completed.
func (c *Client) Done() bool { return c.done }

// TotalBlocks returns the number of blocks in the whole file.
func (m *MetaInfo) TotalBlocks() int {
	n := 0
	for i := 0; i < m.NumPieces(); i++ {
		n += m.BlocksIn(i)
	}
	return n
}

// Availability returns how many known peers have piece i.
func (pk *Picker) Availability(i int) int { return pk.avail[i] }

// Clone returns an independent copy.
func (b *Bitfield) Clone() *Bitfield {
	nb := NewBitfield(b.n)
	copy(nb.bits, b.bits)
	nb.set = b.set
	return nb
}

// CompletedCount returns how many clients have finished so far.
func (s *Swarm) CompletedCount() int { return s.completed }

// PeerCount returns how many peers are registered for a torrent.
func (t *Tracker) PeerCount(infoHash [20]byte) int {
	sw := t.swarms[infoHash]
	if sw == nil {
		return 0
	}
	return len(sw.order)
}

// Endpoint returns the address clients configure in
// ClientConfig.WebSeeds.
func (w *WebSeed) Endpoint() ip.Endpoint {
	return ip.Endpoint{Addr: w.host.Addr(), Port: WebSeedPort}
}

// SetAuditHook hands every client built from now on to fn, until the
// returned function restores the previous hook. Tests that call it
// must not run in parallel.
func SetAuditHook(fn func(*Client)) (restore func()) {
	old := auditHook
	auditHook = fn
	return func() { auditHook = old }
}

// AuditRequests checks a client's download bookkeeping against its
// peers' in-flight requests and returns the first inconsistency,
// naming the client, piece and block:
//   - a piece is partial in the picker exactly when it has a record,
//     and partialOrder lists the recorded pieces ascending;
//   - each partial piece's req[b] is the number of peers with block b
//     in flight, and at most endgameDup;
//   - every in-flight entry names a partial piece, or a held piece
//     whose cancel is still being sent, and no peer holds one twice.
//
// It may run between any two kernel events: the client's loop can be
// parked mid-handler in a send, and every such point is consistent. A
// stopped client is skipped; its counts are never read again.
func (c *Client) AuditRequests() error {
	if c.stopped {
		return nil
	}
	who := c.h.Addr()
	var order []int
	for i, pp := range c.partials {
		if partial := c.picker.state[i] == piecePartial; partial != (pp != nil) {
			return fmt.Errorf("client %v piece %d: picker partial %v, record %v", who, i, partial, pp != nil)
		}
		if pp != nil {
			order = append(order, i)
		}
	}
	if fmt.Sprint(order) != fmt.Sprint(c.partialOrder) {
		return fmt.Errorf("client %v: partialOrder %v, records %v", who, c.partialOrder, order)
	}
	counts := make(map[[2]int]int)
	for _, pr := range c.peers {
		seen := make(map[[2]int]bool)
		for _, e := range pr.inflight {
			key := [2]int{int(e.piece), int(e.block)}
			if seen[key] {
				return fmt.Errorf("client %v piece %d block %d: in flight twice at peer %v", who, key[0], key[1], pr.addr)
			}
			seen[key] = true
			if c.partials[key[0]] == nil && !c.have.Has(key[0]) {
				return fmt.Errorf("client %v piece %d block %d: in flight at peer %v, but the piece is neither partial nor held", who, key[0], key[1], pr.addr)
			}
			counts[key]++
		}
	}
	for _, pi := range c.partialOrder {
		for b, n := range c.partials[pi].req {
			if want := counts[[2]int{pi, b}]; int(n) != want || n > endgameDup {
				return fmt.Errorf("client %v piece %d block %d: req %d, in flight at %d peers (limit %d)", who, pi, b, n, want, endgameDup)
			}
		}
	}
	return nil
}

// MaxRequests returns the largest request count over the client's
// partial pieces.
func (c *Client) MaxRequests() int {
	m := 0
	for _, pi := range c.partialOrder {
		for _, n := range c.partials[pi].req {
			m = max(m, int(n))
		}
	}
	return m
}
