package bt

import "math/bits"

// Bitfield tracks piece possession, bit-packed exactly like the wire
// format (most significant bit of byte 0 is piece 0).
type Bitfield struct {
	bits []byte
	n    int
	set  int

	// small is inline storage for torrents of up to 128 pieces: bits
	// points into it instead of a separate heap block, so the hot
	// Has/Set probes touch the same cache line as the header instead of
	// chasing a second pointer — and a 10k-peer swarm holds one fewer
	// heap object per (peer, bitfield) pair.
	small [16]byte
}

// NewBitfield returns an empty bitfield for n pieces.
func NewBitfield(n int) *Bitfield {
	b := &Bitfield{n: n}
	if nb := (n + 7) / 8; nb <= len(b.small) {
		b.bits = b.small[:nb]
	} else {
		b.bits = make([]byte, nb)
	}
	return b
}

// Clone returns an independent copy: what a bitfield message carries,
// the sender's pieces at the moment it sends.
func (b *Bitfield) Clone() *Bitfield {
	nb := NewBitfield(b.n)
	copy(nb.bits, b.bits)
	nb.set = b.set
	return nb
}

// Len returns the number of pieces tracked.
func (b *Bitfield) Len() int { return b.n }

// Count returns the number of pieces set.
func (b *Bitfield) Count() int { return b.set }

// Has reports whether piece i is set.
func (b *Bitfield) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.bits[i/8]&(0x80>>uint(i%8)) != 0
}

// Set marks piece i. Setting an already-set piece is a no-op.
func (b *Bitfield) Set(i int) {
	if i < 0 || i >= b.n || b.Has(i) {
		return
	}
	b.bits[i/8] |= 0x80 >> uint(i%8)
	b.set++
}

// Complete reports whether every piece is set.
func (b *Bitfield) Complete() bool { return b.set == b.n }

// forEachSet calls fn for every set piece in ascending order, scanning
// bytewise. Bits past Len() are never set.
func (b *Bitfield) forEachSet(fn func(i int)) {
	for j, w := range b.bits {
		for w != 0 {
			lz := bits.LeadingZeros8(w)
			w &^= 0x80 >> uint(lz)
			fn(j*8 + lz)
		}
	}
}

// usefulCount returns |peerBits ∖ have|: how many pieces the peer has
// that we still need. Bytewise popcount over two bitfields of one
// torrent.
func usefulCount(peerBits, have *Bitfield) int {
	n := 0
	for j, w := range peerBits.bits {
		n += bits.OnesCount8(w &^ have.bits[j])
	}
	return n
}

// Full returns a bitfield with every piece set (a seeder's bitfield).
func Full(n int) *Bitfield {
	b := NewBitfield(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	return b
}
