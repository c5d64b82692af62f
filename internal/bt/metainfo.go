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

// MetaInfo is the content of a .torrent file: file metadata plus a
// 20-byte hash per piece.
type MetaInfo struct {
	Name        string
	Length      int64
	PieceLength int
	PieceHashes [][20]byte
	infoHash    [20]byte
}

// NumPieces returns the piece count.
func (m *MetaInfo) NumPieces() int { return len(m.PieceHashes) }

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

// InfoHash returns the SHA-1 of the bencoded info dictionary — the
// torrent's identity in handshakes and tracker announces.
func (m *MetaInfo) InfoHash() [20]byte { return m.infoHash }

// computeInfoHash builds the bencoded info dict and hashes it.
func (m *MetaInfo) computeInfoHash() error {
	pieces := make([]byte, 0, 20*len(m.PieceHashes))
	for _, h := range m.PieceHashes {
		pieces = append(pieces, h[:]...)
	}
	enc, err := Bencode(map[string]any{
		"name":         m.Name,
		"length":       m.Length,
		"piece length": m.PieceLength,
		"pieces":       pieces,
	})
	if err != nil {
		return err
	}
	m.infoHash = sha1.Sum(enc)
	return nil
}

// SyntheticTorrent builds a MetaInfo for content of the given length
// that is never materialized: no run models bytes (a piece is a bit,
// DESIGN decision 4), so piece i's hash is a tag derived from (name,
// i), and the infohash is a function of name, length and piece length.
func SyntheticTorrent(name string, length int64, pieceLength int) (*MetaInfo, error) {
	if pieceLength <= 0 {
		pieceLength = DefaultPieceLength
	}
	if length <= 0 {
		return nil, fmt.Errorf("bt: empty torrent")
	}
	m := &MetaInfo{Name: name, Length: length, PieceLength: pieceLength}
	n := int((length + int64(pieceLength) - 1) / int64(pieceLength))
	for i := 0; i < n; i++ {
		m.PieceHashes = append(m.PieceHashes, syntheticPieceHash(name, i))
	}
	if err := m.computeInfoHash(); err != nil {
		return nil, err
	}
	return m, nil
}

// syntheticPieceHash derives a deterministic 20-byte tag for piece i of
// the named synthetic file.
func syntheticPieceHash(name string, i int) [20]byte {
	return sha1.Sum([]byte(fmt.Sprintf("%s/%d", name, i)))
}
