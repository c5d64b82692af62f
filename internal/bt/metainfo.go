package bt

import (
	"crypto/sha1"
	"fmt"
)

// Piece and block sizing, matching BitTorrent 4.x and the paper: "the
// file is always divided in pieces of 256 KB"; clients transfer pieces
// in 16 KiB blocks.
const (
	DefaultPieceLength = 256 * 1024
	BlockLength        = 16 * 1024
)

// MetaInfo is what a run needs of a .torrent file: the file's name,
// length and piece length. No run models bytes (DESIGN decision 4), so
// there are no per-piece hashes.
//
// A MetaInfo also holds the torrent's interned wire messages (see
// MetaInfo.block). The table fills as pieces are first named, with no
// lock: one kernel owns a MetaInfo, and runs on other kernels build
// their own with SyntheticTorrent.
type MetaInfo struct {
	Name        string
	Length      int64
	PieceLength int
	pieces      int
	infoHash    [20]byte

	// flags holds the choke, unchoke, interested and not-interested
	// messages, indexed by ID.
	flags [MsgNotInterested + 1]Msg
	// msgs[i] holds piece i's Have, then the request, piece and cancel
	// of each of its blocks; nil until a message first names piece i.
	msgs [][]Msg
}

// NumPieces returns the piece count.
func (m *MetaInfo) NumPieces() int { return m.pieces }

// PieceSize returns the size of piece i (the last piece may be short).
func (m *MetaInfo) PieceSize(i int) int {
	if i == m.NumPieces()-1 {
		if rem := int(m.Length % int64(m.PieceLength)); rem != 0 {
			return rem
		}
	}
	return m.PieceLength
}

// BlocksIn returns the number of blocks in piece i.
func (m *MetaInfo) BlocksIn(i int) int {
	return (m.PieceSize(i) + BlockLength - 1) / BlockLength
}

// BlockSize returns the size of block b of piece i.
func (m *MetaInfo) BlockSize(i, b int) int {
	size := m.PieceSize(i) - b*BlockLength
	if size > BlockLength {
		return BlockLength
	}
	return size
}

// InfoHash returns the torrent's 20-byte identity in handshakes and
// tracker announces. It is only ever compared.
func (m *MetaInfo) InfoHash() [20]byte { return m.infoHash }

// SyntheticTorrent builds the MetaInfo of content of the given length
// that is never materialized. Its info hash is a SHA-1 of name, length
// and piece length, so two torrents share one exactly when all three
// are equal, and equal hashes imply equal piece counts.
func SyntheticTorrent(name string, length int64, pieceLength int) (*MetaInfo, error) {
	if pieceLength <= 0 {
		pieceLength = DefaultPieceLength
	}
	if length <= 0 {
		return nil, fmt.Errorf("bt: empty torrent")
	}
	m := &MetaInfo{Name: name, Length: length, PieceLength: pieceLength,
		pieces: int((length + int64(pieceLength) - 1) / int64(pieceLength))}
	for id := range m.flags {
		m.flags[id].ID = MsgID(id)
	}
	// The name goes last, after two colon-ended integers, so the
	// encoding is injective.
	m.infoHash = sha1.Sum(fmt.Appendf(nil, "%d:%d:%s", m.Length, m.PieceLength, m.Name))
	return m, nil
}
