package bt

import (
	"crypto/sha1"
	"fmt"
)

// Storage holds a torrent's content on one node and verifies pieces.
// Two implementations: MemStorage keeps real bytes and verifies real
// SHA-1 hashes; SparseStorage tracks only which blocks arrived, for
// swarms too large to materialize.
type Storage interface {
	// ReadBlock returns the payload of the given block for uploading.
	// The bool reports whether the piece is available.
	ReadBlock(piece, begin, length int) ([]byte, bool)
	// WriteBlock stores a downloaded block; data is nil for a sparse
	// block.
	WriteBlock(piece, begin int, data []byte) error
	// CompletePiece verifies a fully downloaded piece against the
	// metainfo; on success the piece becomes readable.
	CompletePiece(piece int) (bool, error)
	// HavePiece reports whether a piece is complete and verified.
	HavePiece(piece int) bool
	// Bitfield returns the current possession map. The caller must not
	// mutate it.
	Bitfield() *Bitfield
}

// MemStorage is byte-accurate storage with real SHA-1 verification.
type MemStorage struct {
	meta *MetaInfo
	data []byte
	have *Bitfield
}

// NewMemStorage returns empty storage for a leecher.
func NewMemStorage(meta *MetaInfo) *MemStorage {
	return &MemStorage{
		meta: meta,
		data: make([]byte, meta.Length),
		have: NewBitfield(meta.NumPieces()),
	}
}

// NewSeededMemStorage returns storage pre-filled with content, whose
// hashes must match the metainfo (a seeder).
func NewSeededMemStorage(meta *MetaInfo, data []byte) (*MemStorage, error) {
	if int64(len(data)) != meta.Length {
		return nil, fmt.Errorf("bt: content is %d bytes, torrent says %d", len(data), meta.Length)
	}
	s := &MemStorage{meta: meta, data: append([]byte(nil), data...), have: NewBitfield(meta.NumPieces())}
	for i := 0; i < meta.NumPieces(); i++ {
		if sha1.Sum(s.pieceBytes(i)) != meta.PieceHashes[i] {
			return nil, fmt.Errorf("bt: piece %d hash mismatch", i)
		}
		s.have.Set(i)
	}
	return s, nil
}

func (s *MemStorage) pieceBytes(i int) []byte {
	off := int64(i) * int64(s.meta.PieceLength)
	end := off + int64(s.meta.PieceSize(i))
	return s.data[off:end]
}

// ReadBlock implements Storage.
func (s *MemStorage) ReadBlock(piece, begin, length int) ([]byte, bool) {
	if !s.have.Has(piece) {
		return nil, false
	}
	pb := s.pieceBytes(piece)
	if begin < 0 || begin+length > len(pb) {
		return nil, false
	}
	out := make([]byte, length)
	copy(out, pb[begin:begin+length])
	return out, true
}

// WriteBlock implements Storage. Real bytes are required.
func (s *MemStorage) WriteBlock(piece, begin int, data []byte) error {
	if data == nil {
		return fmt.Errorf("bt: MemStorage needs real block bytes (piece %d begin %d)", piece, begin)
	}
	off := int64(piece)*int64(s.meta.PieceLength) + int64(begin)
	if off < 0 || off+int64(len(data)) > s.meta.Length {
		return fmt.Errorf("bt: block out of range (piece %d begin %d)", piece, begin)
	}
	copy(s.data[off:], data)
	return nil
}

// CompletePiece implements Storage with a real SHA-1 check.
func (s *MemStorage) CompletePiece(piece int) (bool, error) {
	if piece < 0 || piece >= s.meta.NumPieces() {
		return false, fmt.Errorf("bt: piece %d out of range", piece)
	}
	if sha1.Sum(s.pieceBytes(piece)) != s.meta.PieceHashes[piece] {
		return false, nil
	}
	s.have.Set(piece)
	return true, nil
}

// HavePiece implements Storage.
func (s *MemStorage) HavePiece(piece int) bool { return s.have.Has(piece) }

// Bitfield implements Storage.
func (s *MemStorage) Bitfield() *Bitfield { return s.have }

// SparseStorage tracks only which blocks have arrived; a piece passes
// verification once every one of its blocks has. It uses O(pieces)
// memory regardless of file size, enabling the 5754-client experiment.
type SparseStorage struct {
	meta   *MetaInfo
	have   *Bitfield
	blocks []uint64 // received-block bitmaps, stride words per piece
	stride int      // words per piece
}

// NewSparseStorage returns empty sparse storage for a leecher. The
// received-block bitmap is stride words per piece: the earlier single
// uint64 silently corrupted receipt tracking for pieces of more than 64
// blocks (pieces over 1 MiB at the standard 16 KiB block size).
func NewSparseStorage(meta *MetaInfo) *SparseStorage {
	maxBlocks := (meta.PieceLength + BlockLength - 1) / BlockLength
	stride := (maxBlocks + 63) / 64
	if stride < 1 {
		stride = 1
	}
	return &SparseStorage{
		meta:   meta,
		have:   NewBitfield(meta.NumPieces()),
		blocks: make([]uint64, meta.NumPieces()*stride),
		stride: stride,
	}
}

// NewSeededSparseStorage returns sparse storage that already has every
// piece (a seeder of synthetic content).
func NewSeededSparseStorage(meta *MetaInfo) *SparseStorage {
	s := NewSparseStorage(meta)
	for i := 0; i < meta.NumPieces(); i++ {
		s.have.Set(i)
	}
	return s
}

// ReadBlock implements Storage; sparse blocks have no bytes, so it
// returns nil with true when the piece is available.
func (s *SparseStorage) ReadBlock(piece, begin, length int) ([]byte, bool) {
	return nil, s.have.Has(piece)
}

// WriteBlock implements Storage: it records block receipt; data is
// ignored.
func (s *SparseStorage) WriteBlock(piece, begin int, data []byte) error {
	if piece < 0 || piece >= s.meta.NumPieces() {
		return fmt.Errorf("bt: piece %d out of range", piece)
	}
	if begin%BlockLength != 0 {
		// Integer division below would silently fold a misaligned offset
		// into the wrong block bit, marking a block received that never
		// arrived.
		return fmt.Errorf("bt: block offset %d in piece %d not aligned to %d", begin, piece, BlockLength)
	}
	b := begin / BlockLength
	if b < 0 || b >= s.meta.BlocksIn(piece) {
		return fmt.Errorf("bt: block offset %d out of piece %d", begin, piece)
	}
	s.blocks[piece*s.stride+b/64] |= 1 << uint(b%64)
	return nil
}

// CompletePiece implements Storage: the piece passes when every block
// arrived.
func (s *SparseStorage) CompletePiece(piece int) (bool, error) {
	if piece < 0 || piece >= s.meta.NumPieces() {
		return false, fmt.Errorf("bt: piece %d out of range", piece)
	}
	n := s.meta.BlocksIn(piece)
	words := s.blocks[piece*s.stride : (piece+1)*s.stride]
	for b0 := 0; b0 < n; b0 += 64 {
		span := n - b0
		want := ^uint64(0)
		if span < 64 {
			want = uint64(1)<<uint(span) - 1
		}
		if words[b0/64] != want {
			return false, nil
		}
	}
	s.have.Set(piece)
	return true, nil
}

// HavePiece implements Storage.
func (s *SparseStorage) HavePiece(piece int) bool { return s.have.Has(piece) }

// Bitfield implements Storage.
func (s *SparseStorage) Bitfield() *Bitfield { return s.have }
