package bt

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// offGrid returns requests that name no block of meta, whose pieces
// must span two or more blocks and whose last block must be short: an
// index on either side of the torrent, offsets before, off and past the
// block grid, and lengths other than the block's, among them the
// 16 KiB the old bounds check let through for a short last block.
func offGrid(meta *MetaInfo) []Msg {
	last := meta.NumPieces() - 1
	lastBlock := meta.BlocksIn(last) - 1
	return []Msg{
		{ID: MsgRequest, Index: -1, Begin: 0, Length: BlockLength},
		{ID: MsgRequest, Index: meta.NumPieces(), Begin: 0, Length: BlockLength},
		{ID: MsgRequest, Index: 0, Begin: -BlockLength, Length: BlockLength},
		{ID: MsgRequest, Index: 0, Begin: BlockLength / 2, Length: BlockLength},
		{ID: MsgRequest, Index: 0, Begin: meta.BlocksIn(0) * BlockLength, Length: BlockLength},
		{ID: MsgRequest, Index: 0, Begin: 0, Length: 0},
		{ID: MsgRequest, Index: 0, Begin: 0, Length: BlockLength - 1},
		{ID: MsgRequest, Index: 0, Begin: 0, Length: BlockLength + 1},
		{ID: MsgRequest, Index: 0, Begin: 0, Length: 128 * 1024},
		{ID: MsgRequest, Index: last, Begin: lastBlock * BlockLength, Length: BlockLength},
	}
}

// msgTableTorrent has three pieces of two blocks, the last block 100 B.
func msgTableTorrent(t *testing.T) *MetaInfo {
	t.Helper()
	meta, err := SyntheticTorrent("t", 5*BlockLength+100, 2*BlockLength)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumPieces() != 3 || meta.BlockSize(2, 1) != 100 {
		t.Fatalf("torrent shape: %d pieces, last block %d B", meta.NumPieces(), meta.BlockSize(2, 1))
	}
	return meta
}

// firstPiece reads the first message cn receives and checks it is the
// piece message that answers want: a connection delivers in order, so
// a piece sent for any request before want would arrive first.
func firstPiece(t *testing.T, p *sim.Proc, who string, cn *vnet.Conn, want Msg) {
	t.Helper()
	meta, err := cn.Recv(p)
	if err != nil {
		t.Errorf("%s: %v before the piece", who, err)
		return
	}
	got, ok := meta.(*Msg)
	if !ok {
		t.Errorf("%s: received %T, want *Msg", who, meta)
		return
	}
	if w := (Msg{ID: MsgPiece, Index: want.Index, Begin: want.Begin, Length: want.Length}); *got != w {
		t.Errorf("%s: first reply %v, want %v: a request that names no block was answered", who, got, &w)
	}
}

// TestRequestsOffTheBlockGridGetNoPiece sends an unchoked seeder and a
// web seed requests that name no block of the torrent, then one that
// does. Only the last may be answered (BEP 3: a request names a block).
func TestRequestsOffTheBlockGridGetNoPiece(t *testing.T) {
	meta := msgTableTorrent(t)
	good := Msg{ID: MsgRequest, Index: 2, Begin: BlockLength, Length: 100}
	k, _, _, hosts := swarmEnv(t, 1, 3, fastClass)
	seeder := NewClient(hosts[0], meta, Full(meta.NumPieces()), ip.Endpoint{}, DefaultClientConfig())
	ws := NewWebSeed(hosts[1], meta)
	k.Go("requests", func(p *sim.Proc) {
		defer k.Stop()
		l, err := hosts[2].Listen(p, peerPort)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := hosts[0].Dial(p, ip.Endpoint{Addr: hosts[2].Addr(), Port: peerPort})
		if err != nil {
			t.Error(err)
			return
		}
		in, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		pr := seeder.attach(conn)
		pr.amChoking = false
		for _, m := range append(offGrid(meta), good) {
			seeder.onMsg(p, pr, &m)
		}
		firstPiece(t, p, "seeder", in, good)

		wc, err := hosts[2].Dial(p, ws.Endpoint())
		if err != nil {
			t.Error(err)
			return
		}
		for _, m := range append(offGrid(meta), good) {
			if err := wc.SendMeta(p, m.WireSize(), &m); err != nil {
				t.Error(err)
				return
			}
		}
		firstPiece(t, p, "web seed", wc, good)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ws.bytes.Value(); got != 100 {
		t.Errorf("web seed served %d bytes, want 100", got)
	}
}

// refBlock is blockOf's reference: the block of meta whose offset and
// length are begin and length, found by walking every block of the
// piece.
func refBlock(meta *MetaInfo, index, begin, length int) (int, bool) {
	if index < 0 || index >= meta.NumPieces() {
		return 0, false
	}
	off := 0
	for b := 0; b < meta.BlocksIn(index); b++ {
		size := meta.BlockSize(index, b)
		if begin == off && length == size {
			return b, true
		}
		off += size
	}
	return 0, false
}

// checkInterned looks up (id, index, begin, length) in meta's table as
// a sender would, and fails unless the interned value and its WireSize
// equal the hand-built message. It returns the piece it touched, or -1.
func checkInterned(t *testing.T, meta *MetaInfo, id MsgID, index, begin, length int) int {
	t.Helper()
	var got *Msg
	want := Msg{ID: id}
	touched := -1
	switch {
	case id <= MsgNotInterested:
		got = meta.flag(id)
	case id == MsgHave:
		if index < 0 || index >= meta.NumPieces() {
			return -1
		}
		got, want.Index, touched = meta.have(index), index, index
	case id == MsgRequest || id == MsgPiece || id == MsgCancel:
		b, ok := meta.blockOf(index, begin, length)
		if rb, rok := refBlock(meta, index, begin, length); ok != rok || ok && b != rb {
			t.Fatalf("blockOf(%d, %d, %d) = %d, %v; the block walk says %d, %v", index, begin, length, b, ok, rb, rok)
		}
		if !ok {
			return -1
		}
		got, touched = meta.block(id, index, b), index
		want.Index, want.Begin, want.Length = index, begin, length
	default:
		return -1 // a bitfield, or no message: not interned
	}
	if *got != want {
		t.Fatalf("interned %v, want %v", got, &want)
	}
	if got.WireSize() != want.WireSize() {
		t.Fatalf("interned %v is %d B on the wire, want %d", got, got.WireSize(), want.WireSize())
	}
	return touched
}

// FuzzMsgTable draws a torrent shape and a message (id, index, begin,
// length). blockOf must accept exactly the torrent's blocks (against a
// walk of every block of the piece); every message the table holds
// for the draw, and for the block the draw folds onto, must equal and
// weigh the same as the hand-built one; and the table must hold only
// the pieces those lookups named.
func FuzzMsgTable(f *testing.F) {
	f.Add(uint32(2*BlockLength), uint16(2), uint32(100), uint8(MsgRequest), int64(2), int64(BlockLength), int64(100))
	f.Add(uint32(DefaultPieceLength), uint16(31), uint32(0), uint8(MsgPiece), int64(31), int64(15*BlockLength), int64(BlockLength))
	f.Add(uint32(100), uint16(7), uint32(50), uint8(MsgCancel), int64(7), int64(0), int64(50))
	f.Add(uint32(BlockLength+1), uint16(0), uint32(0), uint8(MsgRequest), int64(0), int64(BlockLength), int64(1))
	f.Add(uint32(3*BlockLength), uint16(4), uint32(7), uint8(MsgHave), int64(-1), int64(0), int64(0))
	f.Add(uint32(DefaultPieceLength), uint16(3), uint32(9), uint8(MsgUnchoke), int64(1), int64(8), int64(BlockLength))
	f.Add(uint32(1<<21), uint16(1), uint32(1<<20), uint8(MsgRequest), int64(1), int64(64*BlockLength), int64(BlockLength))
	f.Fuzz(func(t *testing.T, pieceLen uint32, pieces uint16, tail uint32, id uint8, index, begin, length int64) {
		pieceLength := 1 + int(pieceLen%(4<<20))
		n := 1 + int(pieces%512)
		size := int64(n-1)*int64(pieceLength) + 1 + int64(tail%uint32(pieceLength))
		meta, err := SyntheticTorrent("fuzz", size, pieceLength)
		if err != nil {
			t.Fatal(err)
		}
		if meta.NumPieces() != n {
			t.Fatalf("%d B in %d B pieces: %d pieces, want %d", size, pieceLength, meta.NumPieces(), n)
		}
		if meta.msgs != nil {
			t.Fatal("a new torrent already holds a message table")
		}
		touched := map[int]bool{}
		touch := func(i int) {
			if i >= 0 {
				touched[i] = true
			}
		}
		touch(checkInterned(t, meta, MsgID(id%10), int(index), int(begin), int(length)))
		// Fold the draw onto a block of the torrent: blockOf must take
		// it, and all five of its piece's messages must be canonical.
		pi := int(uint64(index) % uint64(n))
		b := int(uint64(begin) % uint64(meta.BlocksIn(pi)))
		for _, id := range []MsgID{MsgHave, MsgRequest, MsgPiece, MsgCancel} {
			touch(checkInterned(t, meta, id, pi, b*BlockLength, meta.BlockSize(pi, b)))
		}
		if _, ok := meta.blockOf(pi, b*BlockLength, meta.BlockSize(pi, b)); !ok {
			t.Fatalf("blockOf rejects block %d of piece %d", b, pi)
		}
		for i, ms := range meta.msgs {
			if (ms != nil) != touched[i] {
				t.Fatalf("piece %d: table filled %v, named by a lookup %v", i, ms != nil, touched[i])
			}
		}
	})
}
