package bt

import (
	"repro/internal/ip"
	"repro/internal/vnet"
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

// Bytes returns the assembled content (for test assertions).
func (s *MemStorage) Bytes() []byte { return s.data }

// Clone returns an independent copy.
func (b *Bitfield) Clone() *Bitfield {
	nb := NewBitfield(b.n)
	copy(nb.bits, b.bits)
	nb.set = b.set
	return nb
}

// CompletedCount returns how many clients have finished so far.
func (s *Swarm) CompletedCount() int { return s.completed }

// NewTracker creates a tracker with the default announce lifecycle on
// the given host and starts its accept loop on TrackerPort.
func NewTracker(host *vnet.Host) *Tracker {
	return NewTrackerConfig(host, TrackerConfig{})
}

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
