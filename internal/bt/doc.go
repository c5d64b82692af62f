// Package bt implements the BitTorrent file-distribution system the
// paper studies: metainfo, a tracker, the peer wire protocol,
// rarest-first piece selection and the tit-for-tat choking algorithm,
// all running over the emulated network.
//
// The implementation follows the BitTorrent 4.x mainline client (the
// one the paper instruments), with documented simplifications: the
// tracker exchange travels over a vnet connection as typed values
// charged at their bencoded length rather than as HTTP, and no content
// bytes are modelled — a torrent is its name, length and piece length,
// a piece is a bit in the client's Bitfield, and a piece message
// carries its block's length, not its bytes.
package bt
