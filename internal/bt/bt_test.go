package bt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
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
	// Piece 0 is the MSB of byte 0, and a bitfield message is charged
	// one bit per piece, rounded up to a byte.
	b := NewBitfield(17)
	b.Set(0)
	b.Set(8)
	if b.bits[0] != 0x80 || b.bits[1] != 0x80 || b.bits[2] != 0 {
		t.Fatalf("bits = %x", b.bits)
	}
	if got := (Msg{ID: MsgBitfield, Bits: b}).WireSize(); got != 5+3 {
		t.Fatalf("bitfield message of 17 pieces = %d bytes, want 8", got)
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
	e := NewBitfield(9)
	ec := e.Clone()
	e.Set(3)
	if ec.Has(3) || ec.Count() != 0 {
		t.Fatal("clone shares bits with the original")
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

// TestInfoHashDistinguishesContent checks the torrent identity: two
// synthetic torrents share an info hash exactly when their name, length
// and piece length are all equal (piece length 0 is the default).
func TestInfoHashDistinguishesContent(t *testing.T) {
	type torrent struct {
		name   string
		length int64
		piece  int
	}
	const mib = 1 << 20
	cases := []struct {
		a, b  torrent
		equal bool
	}{
		{torrent{"a", mib, 0}, torrent{"a", mib, 0}, true},
		{torrent{"a", mib, 0}, torrent{"a", mib, DefaultPieceLength}, true},
		{torrent{"a", mib, 0}, torrent{"b", mib, 0}, false},
		{torrent{"a", mib, 0}, torrent{"a", mib + 1, 0}, false},
		{torrent{"a", mib, 0}, torrent{"a", mib - 1, 0}, false}, // same piece count
		{torrent{"a", mib, 0}, torrent{"a", mib, 2 * DefaultPieceLength}, false},
		{torrent{"a", mib, 1 << 16}, torrent{"a", mib, 1 << 17}, false},
		// Digits and separators in the name shift no field boundary.
		{torrent{"2:a", 1, 2}, torrent{"a", 1, 22}, false},
		{torrent{"1:a", 12, 3}, torrent{"a", 121, 3}, false},
		{torrent{"", mib, 0}, torrent{"0", mib, 0}, false},
	}
	for _, c := range cases {
		a, err := SyntheticTorrent(c.a.name, c.a.length, c.a.piece)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SyntheticTorrent(c.b.name, c.b.length, c.b.piece)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.InfoHash() == b.InfoHash(); got != c.equal {
			t.Errorf("%+v vs %+v: equal hashes %v, want %v", c.a, c.b, got, c.equal)
		}
	}
}

// TestHandshakeNamesTheTorrent checks that a client refuses a peer
// whose handshake names another torrent, on both sides of the
// exchange: an inbound peer is closed without an answer (handshakeIn),
// and an outbound peer that answers with the other hash is closed
// instead of admitted (dialPeer).
func TestHandshakeNamesTheTorrent(t *testing.T) {
	meta, _ := SyntheticTorrent("t", 512*1024, 0)
	other, _ := SyntheticTorrent("u", 512*1024, 0)
	stranger := Handshake{InfoHash: other.InfoHash()}
	k, _, _, hosts := swarmEnv(t, 1, 3, fastClass)
	c := NewClient(hosts[0], meta, NewBitfield(meta.NumPieces()), ip.Endpoint{}, DefaultClientConfig())
	closed := func(side string, conn *vnet.Conn, p *sim.Proc) {
		got, ok, err := conn.RecvTimeout(p, time.Minute)
		if !errors.Is(err, vnet.ErrClosed) {
			t.Errorf("%s: got %v (ok %v, err %v), want the client to close", side, got, ok, err)
		}
	}
	k.Go("strangers", func(p *sim.Proc) {
		defer k.Stop()
		l, err := hosts[0].Listen(p, peerPort)
		if err != nil {
			t.Error(err)
			return
		}
		p.Go("accept", func(p *sim.Proc) { l.Serve(p, "bt-handshake-in", c.handshakeIn) })
		in, err := hosts[1].Dial(p, ip.Endpoint{Addr: hosts[0].Addr(), Port: peerPort})
		if err != nil {
			t.Error(err)
			return
		}
		if err := sendHandshake(p, in, &stranger); err != nil {
			t.Error(err)
			return
		}
		closed("inbound", in, p)

		sl, err := hosts[2].Listen(p, peerPort)
		if err != nil {
			t.Error(err)
			return
		}
		c.dialPeer(p, ip.Endpoint{Addr: hosts[2].Addr(), Port: peerPort})
		out, err := sl.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		if !recvHandshake(p, out, time.Minute, &Handshake{InfoHash: meta.InfoHash()}) {
			t.Errorf("outbound: client's handshake does not name its torrent")
			return
		}
		if err := sendHandshake(p, out, &stranger); err != nil {
			t.Error(err)
			return
		}
		closed("outbound", out, p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBitfieldMessageIsASendTimeCopy checks that a bitfield message
// carries the pieces the sender had when it sent it. The sender
// completes piece 1 while its bitfield message is in flight: the
// receiver's view of the sender must lack piece 1 until the Have that
// follows, and must count it then.
func TestBitfieldMessageIsASendTimeCopy(t *testing.T) {
	meta, _ := SyntheticTorrent("t", 4*BlockLength, BlockLength) // 4 one-block pieces
	k, _, _, hosts := swarmEnv(t, 1, 2, fastClass)
	have := NewBitfield(meta.NumPieces())
	have.Set(0)
	sender := NewClient(hosts[0], meta, have, ip.Endpoint{}, DefaultClientConfig())
	receiver := NewClient(hosts[1], meta, NewBitfield(meta.NumPieces()), ip.Endpoint{}, DefaultClientConfig())
	k.Go("exchange", func(p *sim.Proc) {
		defer k.Stop()
		l, err := hosts[1].Listen(p, peerPort)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := hosts[0].Dial(p, ip.Endpoint{Addr: hosts[1].Addr(), Port: peerPort})
		if err != nil {
			t.Error(err)
			return
		}
		in, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		sender.onJoin(p, sender.attach(conn)) // sends the bitfield message
		// Piece 1's one block arrives from a third peer: the sender
		// completes it and sends Have 1 behind the bitfield.
		sender.onBlock(p, newPeer(nil, ip.MustParseAddr("10.9.0.1"), meta.NumPieces()), blockMsg(1, 0))
		if !sender.have.Has(1) {
			t.Error("sender did not complete piece 1")
			return
		}
		view := newPeer(in, hosts[0].Addr(), meta.NumPieces())
		receiver.registerPeer(view)
		for sawBitfield := false; !view.bits.Has(1); {
			v, err := in.Recv(p)
			if err != nil {
				t.Errorf("receiver: %v before the sender's Have 1", err)
				return
			}
			m := v.(*Msg)
			receiver.onMsg(p, view, m)
			switch {
			case m.ID == MsgBitfield:
				sawBitfield = true
				if !view.bits.Has(0) || view.bits.Has(1) {
					t.Errorf("after the bitfield message the receiver sees pieces %v of the sender's, want only 0",
						setPieces(view.bits))
				}
			case m.ID == MsgHave && !sawBitfield:
				t.Error("Have arrived before the bitfield message")
			}
		}
		if got := receiver.picker.Availability(1); got != 1 {
			t.Errorf("piece 1 available at %d peers, want 1", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// setPieces lists the pieces b holds.
func setPieces(b *Bitfield) []int {
	var out []int
	b.forEachSet(func(i int) { out = append(out, i) })
	return out
}

// blockMsg is the piece message that carries block b of piece i.
func blockMsg(i, b int) *Msg {
	return &Msg{ID: MsgPiece, Index: i, Begin: b * BlockLength, Length: BlockLength}
}

// inLeecher runs fn inside a kernel with a fresh leecher for meta.
func inLeecher(t *testing.T, meta *MetaInfo, fn func(p *sim.Proc, c *Client)) {
	t.Helper()
	k, _, trk, hosts := swarmEnv(t, 1, 1, fastClass)
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	c := NewClient(hosts[0], meta, NewBitfield(meta.NumPieces()), trkEP, DefaultClientConfig())
	k.Go("deliver", func(p *sim.Proc) {
		fn(p, c)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// onBlocks runs fn inside a kernel with a fresh leecher for meta; fn's
// deliver feeds piece messages straight to the leecher's onBlock from a
// peer that chokes it, so the pipeline refill after each block sends
// nothing.
func onBlocks(t *testing.T, meta *MetaInfo, fn func(c *Client, deliver func(*Msg))) {
	t.Helper()
	pr := newPeer(nil, ip.MustParseAddr("10.9.0.1"), meta.NumPieces())
	inLeecher(t, meta, func(p *sim.Proc, c *Client) {
		fn(c, func(m *Msg) { c.onBlock(p, pr, m) })
	})
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
	onBlocks(t, m, func(c *Client, deliver func(*Msg)) {
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
	onBlocks(t, m, func(c *Client, deliver func(*Msg)) {
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
		{Msg{ID: MsgBitfield, Bits: NewBitfield(64)}, 13},
		{Msg{ID: MsgBitfield, Bits: NewBitfield(65)}, 14},
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
	pk := NewPicker(5, rng)
	// Piece availability: 0 → 3 peers, 1 → 1 peer, 2 → 2 peers, 3 → 1;
	// piece 4 is held, so random-first is over.
	for i, n := range []int{3, 1, 2, 1} {
		for j := 0; j < n; j++ {
			pk.AddHave(i)
		}
	}
	have := NewBitfield(5)
	have.Set(4)
	peerHas := Full(5)
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		counts[pk.Pick(have, peerHas)]++
	}
	if counts[0] > 0 || counts[2] > 0 {
		t.Fatalf("picked common pieces: %v", counts)
	}
	if counts[1] == 0 || counts[3] == 0 {
		t.Fatalf("rarest tie not randomized: %v", counts)
	}
}

// request records block b of piece pi as requested from pr, the
// bookkeeping fillRequests does before it sends the request.
func request(c *Client, pr *peer, pi, b int) {
	pr.inflight = append(pr.inflight, inflightEntry{piece: int32(pi), block: int32(b)})
	c.partials[pi].req[b]++
}

// TestNextBlockPartialFirst pins the client's block order: every free
// block of a partial piece, lowest first, goes before a fresh piece,
// even a rarer one; a fresh piece starts only once every partial block
// is requested; and endgame duplicates start only after the picker has
// no open piece left.
func TestNextBlockPartialFirst(t *testing.T) {
	m, _ := SyntheticTorrent("t", 4*4*BlockLength, 4*BlockLength) // 4 pieces of 4 blocks
	onBlocks(t, m, func(c *Client, deliver func(*Msg)) {
		for b := 0; b < 4; b++ {
			deliver(blockMsg(3, b)) // held: past random-first
		}
		deliver(blockMsg(0, 1)) // piece 0 partial, block 1 in
		// Availability: piece 0 → 3 peers, 1 → 1 (rarest), 2 → 2.
		for _, pieces := range [][]int{{0, 1, 2}, {0, 2}, {0}} {
			bf := NewBitfield(4)
			for _, i := range pieces {
				bf.Set(i)
			}
			c.picker.AddBitfield(bf)
		}
		a := newPeer(nil, ip.MustParseAddr("10.9.0.2"), 4)
		a.bits = Full(4)
		b := newPeer(nil, ip.MustParseAddr("10.9.0.3"), 4)
		b.bits.Set(0)
		b.bits.Set(2)
		var got [][2]int
		for {
			pi, blk := c.nextBlock(a)
			got = append(got, [2]int{pi, blk})
			if pi < 0 {
				break
			}
			request(c, a, pi, blk)
			if pi == 1 && blk == 0 {
				// Piece 0 is all requested, but the picker still has
				// piece 2 for b: b starts it instead of duplicating.
				if pi, blk := c.nextBlock(b); pi != 2 || blk != 0 {
					t.Fatalf("peer b got (%d, %d), want fresh piece (2, 0)", pi, blk)
				}
				request(c, b, 2, 0)
			}
		}
		// a's last block duplicates b's request of (2, 0).
		want := [][2]int{{0, 0}, {0, 2}, {0, 3}, {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {2, 3}, {2, 0}, {-1, 0}}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("peer a's blocks:\n got %v\nwant %v", got, want)
		}
		if pi := c.picker.Pick(c.have, b.bits); pi != -1 {
			t.Fatalf("picker still offers piece %d", pi)
		}
		if pi, blk := c.nextBlock(b); pi != 0 || blk != 0 {
			t.Fatalf("first endgame duplicate = (%d, %d), want (0, 0)", pi, blk)
		}
	})
}

func TestPickerRespectsPeerBitfield(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(4, rng)
	peerHas := NewBitfield(4)
	peerHas.Set(3)
	have := NewBitfield(4)
	have.Set(0) // past random-first
	for i := 0; i < 10; i++ {
		if got := pk.Pick(have, peerHas); got != 3 {
			t.Fatalf("picked %d, peer only has 3", got)
		}
	}
}

func TestPickerNothingUseful(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(4, rng)
	have := Full(4)
	if got := pk.Pick(have, Full(4)); got != -1 {
		t.Fatalf("picked %d from complete file", got)
	}
}

func TestPickerRandomFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pk := NewPicker(32, rng)
	// Give piece 0 lowest availability; random-first should still
	// scatter picks rather than always taking the rarest.
	for i := 1; i < 32; i++ {
		pk.AddHave(i)
	}
	have := NewBitfield(32)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		seen[pk.Pick(have, Full(32))] = true
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
