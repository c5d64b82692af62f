package bt

import "fmt"

// MsgID is a peer wire protocol message type, numbered per the
// BitTorrent specification.
type MsgID byte

const (
	MsgChoke         MsgID = 0
	MsgUnchoke       MsgID = 1
	MsgInterested    MsgID = 2
	MsgNotInterested MsgID = 3
	MsgHave          MsgID = 4
	MsgBitfield      MsgID = 5
	MsgRequest       MsgID = 6
	MsgPiece         MsgID = 7
	MsgCancel        MsgID = 8
)

// String names the message like protocol documentation does.
func (id MsgID) String() string {
	names := [...]string{"choke", "unchoke", "interested", "not-interested",
		"have", "bitfield", "request", "piece", "cancel"}
	if int(id) < len(names) {
		return names[id]
	}
	return fmt.Sprintf("msg(%d)", byte(id))
}

// HandshakeSize is the wire size of the BitTorrent handshake:
// 1 + len("BitTorrent protocol") + 8 reserved + 20 infohash + 20 peerid.
const HandshakeSize = 68

// Handshake opens every peer connection.
type Handshake struct {
	InfoHash [20]byte
}

// Msg is one peer wire message. Messages travel as vnet values (a
// *Msg as metadata, the spec-accurate size on the wire); a piece
// message carries its block's length, not its bytes, and a bitfield
// message a copy of the sender's Bitfield, taken when it is sent.
//
// BEP 3 fixes every message but a bitfield by (id, index, begin,
// length), so a torrent has finitely many of them: the four flags, a
// Have per piece and a request, piece and cancel per block. Its
// MetaInfo holds each once (flag, have, block), every send passes a
// pointer to that one value, and no receiver writes through it. Only a
// bitfield message is made per send.
type Msg struct {
	ID     MsgID
	Index  int       // have, request, piece, cancel
	Begin  int       // request, piece, cancel
	Length int       // request, piece, cancel: the block's length
	Bits   *Bitfield // bitfield
}

// WireSize returns the message's size on the wire, per the protocol
// spec: 4-byte length prefix + 1-byte id + payload.
func (m Msg) WireSize() int {
	switch m.ID {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		return 5
	case MsgHave:
		return 9
	case MsgBitfield:
		return 5 + len(m.Bits.bits)
	case MsgRequest, MsgCancel:
		return 17
	case MsgPiece:
		return 13 + m.Length
	default:
		return 5
	}
}

// String renders the message for traces.
func (m Msg) String() string {
	switch m.ID {
	case MsgHave:
		return fmt.Sprintf("have %d", m.Index)
	case MsgRequest:
		return fmt.Sprintf("request %d+%d/%d", m.Index, m.Begin, m.Length)
	case MsgPiece:
		return fmt.Sprintf("piece %d+%d (%dB)", m.Index, m.Begin, m.Length)
	case MsgCancel:
		return fmt.Sprintf("cancel %d+%d/%d", m.Index, m.Begin, m.Length)
	case MsgBitfield:
		return fmt.Sprintf("bitfield (%dB)", len(m.Bits.bits))
	default:
		return m.ID.String()
	}
}

// flag returns the torrent's choke, unchoke, interested or
// not-interested message.
func (m *MetaInfo) flag(id MsgID) *Msg { return &m.flags[id] }

// have returns the torrent's Have message for piece i.
func (m *MetaInfo) have(i int) *Msg { return &m.piece(i)[0] }

// block returns the torrent's request, piece or cancel message (id) for
// block b of piece i.
func (m *MetaInfo) block(id MsgID, i, b int) *Msg {
	return &m.piece(i)[1+3*b+int(id-MsgRequest)]
}

// piece returns piece i's messages, made when a message first names
// the piece: a torrent whose pieces are never sent costs no table.
func (m *MetaInfo) piece(i int) []Msg {
	if m.msgs == nil {
		m.msgs = make([][]Msg, m.pieces)
	}
	if ms := m.msgs[i]; ms != nil {
		return ms
	}
	n := m.BlocksIn(i)
	ms := make([]Msg, 1+3*n)
	ms[0] = Msg{ID: MsgHave, Index: i}
	for b := 0; b < n; b++ {
		begin, length := b*BlockLength, m.BlockSize(i, b)
		ms[1+3*b] = Msg{ID: MsgRequest, Index: i, Begin: begin, Length: length}
		ms[2+3*b] = Msg{ID: MsgPiece, Index: i, Begin: begin, Length: length}
		ms[3+3*b] = Msg{ID: MsgCancel, Index: i, Begin: begin, Length: length}
	}
	m.msgs[i] = ms
	return ms
}

// blockOf reports whether (index, begin, length) names a block of the
// torrent, and which: index a piece, begin on the block grid inside it,
// length that block's size. A request, piece or cancel that names
// anything else is not a BEP 3 message of this torrent; a client and a
// web seed answer no such request, and a client drops such a piece.
func (m *MetaInfo) blockOf(index, begin, length int) (int, bool) {
	if index < 0 || index >= m.pieces || begin < 0 || begin%BlockLength != 0 {
		return 0, false
	}
	b := begin / BlockLength
	if b >= m.BlocksIn(index) || length != m.BlockSize(index, b) {
		return 0, false
	}
	return b, true
}
