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

// Msg is one peer wire message. Messages travel as vnet values (the
// struct as metadata, the spec-accurate size on the wire); a piece
// message carries its block's length, not its bytes, and a bitfield
// message a copy of the sender's Bitfield, taken when it is sent.
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
