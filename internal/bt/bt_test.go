package bt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitfieldBasics(t *testing.T) {
	b := NewBitfield(10)
	if b.Count() != 0 || b.Complete() {
		t.Fatal("new bitfield should be empty")
	}
	b.Set(0)
	b.Set(9)
	b.Set(9) // idempotent
	if !b.Has(0) || !b.Has(9) || b.Has(5) {
		t.Fatal("Has wrong")
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d, want 2", b.Count())
	}
	if b.Has(-1) || b.Has(10) {
		t.Fatal("out-of-range Has should be false")
	}
}

func TestBitfieldWireFormat(t *testing.T) {
	// Piece 0 is the MSB of byte 0.
	b := NewBitfield(16)
	b.Set(0)
	b.Set(8)
	if b.Bytes()[0] != 0x80 || b.Bytes()[1] != 0x80 {
		t.Fatalf("wire bytes = %x", b.Bytes())
	}
	back := BitfieldFromBytes(b.Bytes(), 16)
	if back.Count() != 2 || !back.Has(0) || !back.Has(8) {
		t.Fatal("round trip failed")
	}
}

func TestBitfieldFullAndClone(t *testing.T) {
	f := Full(9)
	if !f.Complete() || f.Count() != 9 {
		t.Fatal("Full broken")
	}
	c := f.Clone()
	c.Set(0)
	if c.Count() != f.Count() {
		t.Fatal("clone should equal original")
	}
}

func TestBitfieldProperty(t *testing.T) {
	f := func(raw []byte, nRaw uint16) bool {
		n := int(nRaw%200) + 1
		b := NewBitfield(n)
		count := 0
		seen := map[int]bool{}
		for _, r := range raw {
			i := int(r) % n
			if !seen[i] {
				seen[i] = true
				count++
			}
			b.Set(i)
		}
		return b.Count() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTorrent(t *testing.T) {
	data := make([]byte, 600*1024) // 600 KB → 3 pieces of 256 KB
	rand.New(rand.NewSource(1)).Read(data)
	m, err := CreateTorrent("test", data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 3 {
		t.Fatalf("pieces = %d, want 3", m.NumPieces())
	}
	if m.PieceSize(0) != 256*1024 {
		t.Fatalf("piece 0 size = %d", m.PieceSize(0))
	}
	if m.PieceSize(2) != 600*1024-512*1024 {
		t.Fatalf("last piece size = %d", m.PieceSize(2))
	}
	if m.InfoHash() == ([20]byte{}) {
		t.Fatal("info hash not computed")
	}
}

func TestMetaInfoBlockMath(t *testing.T) {
	m, err := SyntheticTorrent("f", 16*1024*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPieces() != 64 {
		t.Fatalf("16MB/256KB = 64 pieces, got %d", m.NumPieces())
	}
	if m.BlocksIn(0) != 16 {
		t.Fatalf("256KB/16KB = 16 blocks, got %d", m.BlocksIn(0))
	}
	if m.TotalBlocks() != 1024 {
		t.Fatalf("total blocks = %d, want 1024", m.TotalBlocks())
	}
	if m.BlockSize(0, 0) != 16384 {
		t.Fatalf("block size = %d", m.BlockSize(0, 0))
	}
}

func TestMetaInfoOddSizes(t *testing.T) {
	// 1 MB + 1000 bytes: last piece is 1000 bytes, one block.
	m, err := SyntheticTorrent("odd", 1024*1024+1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := m.NumPieces() - 1
	if m.PieceSize(last) != 1000 {
		t.Fatalf("last piece = %d", m.PieceSize(last))
	}
	if m.BlocksIn(last) != 1 {
		t.Fatalf("blocks in last = %d", m.BlocksIn(last))
	}
	if m.BlockSize(last, 0) != 1000 {
		t.Fatalf("last block size = %d", m.BlockSize(last, 0))
	}
}

func TestInfoHashDistinguishesContent(t *testing.T) {
	a, _ := SyntheticTorrent("a", 1024*1024, 0)
	b, _ := SyntheticTorrent("b", 1024*1024, 0)
	if a.InfoHash() == b.InfoHash() {
		t.Fatal("different names must hash differently")
	}
}

func TestMemStorageRoundTrip(t *testing.T) {
	data := make([]byte, 300*1024)
	rand.New(rand.NewSource(2)).Read(data)
	m, err := CreateTorrent("t", data, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := NewSeededMemStorage(m, data)
	if err != nil {
		t.Fatal(err)
	}
	leech := NewMemStorage(m)
	for pi := 0; pi < m.NumPieces(); pi++ {
		for b := 0; b < m.BlocksIn(pi); b++ {
			begin := b * BlockLength
			blk, ok := seed.ReadBlock(pi, begin, m.BlockSize(pi, b))
			if !ok {
				t.Fatalf("seeder missing block %d/%d", pi, b)
			}
			if err := leech.WriteBlock(pi, begin, blk); err != nil {
				t.Fatal(err)
			}
		}
		ok, err := leech.CompletePiece(pi)
		if err != nil || !ok {
			t.Fatalf("piece %d failed verification: %v", pi, err)
		}
	}
	if !leech.Bitfield().Complete() {
		t.Fatal("leecher should be complete")
	}
	if string(leech.Bytes()) != string(data) {
		t.Fatal("reassembled bytes differ")
	}
}

func TestMemStorageRejectsCorruption(t *testing.T) {
	data := make([]byte, 256*1024)
	m, _ := CreateTorrent("t", data, 0)
	leech := NewMemStorage(m)
	bad := make([]byte, BlockLength)
	bad[0] = 0xFF
	for b := 0; b < m.BlocksIn(0); b++ {
		leech.WriteBlock(0, b*BlockLength, bad)
	}
	ok, err := leech.CompletePiece(0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupted piece must fail SHA-1")
	}
	if leech.HavePiece(0) {
		t.Fatal("failed piece must not be marked had")
	}
}

func TestSeededMemStorageRejectsWrongContent(t *testing.T) {
	data := make([]byte, 256*1024)
	m, _ := CreateTorrent("t", data, 0)
	wrong := make([]byte, 256*1024)
	wrong[0] = 1
	if _, err := NewSeededMemStorage(m, wrong); err == nil {
		t.Fatal("seeding wrong content must fail")
	}
}

func TestSparseStorage(t *testing.T) {
	m, _ := SyntheticTorrent("s", 512*1024, 0)
	seed := NewSeededSparseStorage(m)
	if !seed.Bitfield().Complete() {
		t.Fatal("seeded sparse storage should be complete")
	}
	leech := NewSparseStorage(m)
	if ok, _ := leech.CompletePiece(0); ok {
		t.Fatal("empty piece must not verify")
	}
	for b := 0; b < m.BlocksIn(0); b++ {
		if err := leech.WriteBlock(0, b*BlockLength, nil); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := leech.CompletePiece(0)
	if err != nil || !ok {
		t.Fatalf("complete sparse piece should verify: %v", err)
	}
	if !leech.HavePiece(0) || leech.HavePiece(1) {
		t.Fatal("possession wrong")
	}
}

func TestSparseStoragePartialPieceFails(t *testing.T) {
	m, _ := SyntheticTorrent("s", 512*1024, 0)
	leech := NewSparseStorage(m)
	leech.WriteBlock(0, 0, nil) // 1 of 16 blocks
	if ok, _ := leech.CompletePiece(0); ok {
		t.Fatal("partial piece must not verify")
	}
}

func TestWireSizes(t *testing.T) {
	cases := []struct {
		m    Msg
		want int
	}{
		{Msg{ID: MsgChoke}, 5},
		{Msg{ID: MsgUnchoke}, 5},
		{Msg{ID: MsgInterested}, 5},
		{Msg{ID: MsgHave, Index: 3}, 9},
		{Msg{ID: MsgRequest, Index: 1, Begin: 0, Length: 16384}, 17},
		{Msg{ID: MsgCancel}, 17},
		{Msg{ID: MsgPiece, Length: 16384}, 13 + 16384},
		{Msg{ID: MsgPiece, Block: make([]byte, 100)}, 113},
		{Msg{ID: MsgBitfield, Bits: make([]byte, 8)}, 13},
	}
	for _, c := range cases {
		if got := c.m.WireSize(); got != c.want {
			t.Errorf("WireSize(%v) = %d, want %d", c.m, got, c.want)
		}
	}
	if HandshakeSize != 68 {
		t.Fatal("handshake is 68 bytes in the spec")
	}
}

func TestPickerRarestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(4, rng)
	pk.RandomFirstThreshold = 0
	// Piece availability: 0 → 3 peers, 1 → 1 peer, 2 → 2 peers, 3 → 1.
	for i, n := range []int{3, 1, 2, 1} {
		for j := 0; j < n; j++ {
			pk.AddHave(i)
		}
	}
	have := NewBitfield(4)
	peerHas := Full(4)
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		counts[pk.Pick(have, peerHas, func(int) bool { return false })]++
	}
	if counts[0] > 0 || counts[2] > 0 {
		t.Fatalf("picked common pieces: %v", counts)
	}
	if counts[1] == 0 || counts[3] == 0 {
		t.Fatalf("rarest tie not randomized: %v", counts)
	}
}

func TestPickerPartialPriority(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(4, rng)
	pk.RandomFirstThreshold = 0
	pk.AddBitfield(Full(4))
	pk.MarkPartial(2)
	have := NewBitfield(4)
	got := pk.Pick(have, Full(4), func(int) bool { return false })
	if got != 2 {
		t.Fatalf("picked %d, want partial piece 2", got)
	}
}

func TestPickerRespectsPeerBitfield(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(4, rng)
	pk.RandomFirstThreshold = 0
	peerHas := NewBitfield(4)
	peerHas.Set(3)
	have := NewBitfield(4)
	for i := 0; i < 10; i++ {
		if got := pk.Pick(have, peerHas, func(int) bool { return false }); got != 3 {
			t.Fatalf("picked %d, peer only has 3", got)
		}
	}
}

func TestPickerNothingUseful(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(4, rng)
	have := Full(4)
	if got := pk.Pick(have, Full(4), func(int) bool { return false }); got != -1 {
		t.Fatalf("picked %d from complete file", got)
	}
}

func TestPickerRandomFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pk := NewPicker(32, rng)
	pk.RandomFirstThreshold = 1
	// Give piece 0 lowest availability; random-first should still
	// scatter picks rather than always taking the rarest.
	for i := 1; i < 32; i++ {
		pk.AddHave(i)
	}
	have := NewBitfield(32)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		seen[pk.Pick(have, Full(32), func(int) bool { return false })] = true
	}
	if len(seen) < 5 {
		t.Fatalf("random-first should scatter, saw %v", seen)
	}
}

func TestPickerRemoveBitfield(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(3, rng)
	bf := Full(3)
	pk.AddBitfield(bf)
	pk.AddBitfield(bf)
	pk.RemoveBitfield(bf)
	for i := 0; i < 3; i++ {
		if pk.Availability(i) != 1 {
			t.Fatalf("availability[%d] = %d, want 1", i, pk.Availability(i))
		}
	}
}

// BenchmarkPieceVerification compares real SHA-1 verification
// (MemStorage) against sparse block-receipt verification
// (SparseStorage) — the trade-off behind DESIGN.md decision 4.
func BenchmarkPieceVerification(b *testing.B) {
	data := make([]byte, DefaultPieceLength)
	rand.New(rand.NewSource(1)).Read(data)
	meta, err := CreateTorrent("bench", data, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sha1", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			s := NewMemStorage(meta)
			for off := 0; off < len(data); off += BlockLength {
				s.WriteBlock(0, off, data[off:off+BlockLength])
			}
			if ok, _ := s.CompletePiece(0); !ok {
				b.Fatal("verify failed")
			}
		}
	})
	sparseMeta, _ := SyntheticTorrent("bench", DefaultPieceLength, 0)
	b.Run("sparse", func(b *testing.B) {
		b.SetBytes(int64(DefaultPieceLength))
		for i := 0; i < b.N; i++ {
			s := NewSparseStorage(sparseMeta)
			for off := 0; off < DefaultPieceLength; off += BlockLength {
				s.WriteBlock(0, off, nil)
			}
			if ok, _ := s.CompletePiece(0); !ok {
				b.Fatal("verify failed")
			}
		}
	})
}
