package bt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ip"
	"repro/internal/sim"
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
	m, err := SyntheticTorrent("test", 600*1024, 0) // 600 KiB → 3 pieces of 256 KiB
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

// blockMsg is the piece message that carries block b of piece i.
func blockMsg(i, b int) Msg {
	return Msg{ID: MsgPiece, Index: i, Begin: b * BlockLength, Length: BlockLength}
}

// onBlocks runs fn inside a kernel with a fresh leecher for meta; fn's
// deliver feeds piece messages straight to the leecher's onBlock from a
// peer that chokes it, so the pipeline refill after each block sends
// nothing.
func onBlocks(t *testing.T, meta *MetaInfo, fn func(c *Client, deliver func(Msg))) {
	t.Helper()
	k, _, trk, hosts := swarmEnv(t, 1, 1, fastClass)
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	c := NewClient(hosts[0], meta, NewBitfield(meta.NumPieces()), trkEP, DefaultClientConfig())
	pr := newPeer(nil, ip.MustParseAddr("10.9.0.1"), meta.NumPieces())
	k.Go("deliver", func(p *sim.Proc) {
		fn(c, func(m Msg) { c.onBlock(p, pr, m) })
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseStorage pins piece possession: a client built on a full
// Bitfield is a seeder, and a leecher's piece completes once each of
// its blocks has arrived, and no other piece with it.
func TestSparseStorage(t *testing.T) {
	m, _ := SyntheticTorrent("s", 512*1024, 0)
	_, _, _, hosts := swarmEnv(t, 1, 1, fastClass)
	if !NewClient(hosts[0], m, Full(m.NumPieces()), ip.Endpoint{}, DefaultClientConfig()).Done() {
		t.Fatal("a client holding every piece should be done")
	}
	onBlocks(t, m, func(c *Client, deliver func(Msg)) {
		for b := 0; b < m.BlocksIn(0); b++ {
			if c.have.Has(0) {
				t.Errorf("piece complete after %d of %d blocks", b, m.BlocksIn(0))
				return
			}
			deliver(blockMsg(0, b))
		}
		if !c.have.Has(0) || c.have.Has(1) {
			t.Error("possession wrong")
		}
		if c.partials[0] != nil || len(c.partialOrder) != 0 {
			t.Error("completed piece still partial")
		}
		if got := c.BytesDone(); got != int64(m.PieceSize(0)) {
			t.Errorf("BytesDone = %d, want %d", got, m.PieceSize(0))
		}
	})
}

// TestSparseStoragePartialPieceFails: one block, however often it
// arrives (endgame duplicates), does not complete a 16-block piece.
func TestSparseStoragePartialPieceFails(t *testing.T) {
	m, _ := SyntheticTorrent("s", 512*1024, 0)
	onBlocks(t, m, func(c *Client, deliver func(Msg)) {
		for i := 0; i < m.BlocksIn(0); i++ {
			deliver(blockMsg(0, 0))
		}
		if c.have.Has(0) {
			t.Error("partial piece completed")
		}
		if pp := c.partials[0]; pp == nil || pp.count != 1 {
			t.Errorf("duplicate blocks counted: %+v", pp)
		}
	})
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
		{Msg{ID: MsgPiece, Length: 100}, 113},
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
