package bt

import "repro/internal/ip"

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
