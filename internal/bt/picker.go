package bt

import (
	"math/bits"
	"math/rand"
)

// Picker chooses which fresh piece to start, following the mainline
// client's policy:
//
//   - a random first piece while the client holds none (get something
//     uploadable fast);
//   - rarest-first afterwards, with random tie-breaking among equally
//     rare pieces.
//
// Finishing partial pieces first and endgame duplication are block
// choices, made by the client (Client.nextBlock) before and after it
// asks the picker; the picker only ever offers open pieces.
//
// The picker tracks per-piece availability from peers' bitfields and
// have messages. Rarest-first selection is availability-bucketed: every
// "open" piece (not partial, not verified) sits in a per-availability
// bitmap, so Pick walks buckets from rarest up and scans candidate
// bitmaps bytewise instead of rescanning all pieces per call. The
// bucketed walk visits min-availability candidates in ascending piece
// order and draws the same single rng.Intn per multi-way tie as the
// linear scan did, so picks are bit-identical to the O(pieces) version.
type Picker struct {
	avail []int // how many known peers have each piece
	rng   *rand.Rand

	// buckets[a] holds the open pieces with availability a as a bitmap
	// in wire bit order (piece 0 = MSB of byte 0). state tracks which
	// structure owns each piece; scratch is Pick's reusable tie list.
	buckets []bucket
	state   []uint8
	scratch []int
}

// bucket is one availability class of open pieces.
type bucket struct {
	bits  []byte
	count int
}

// Piece states for the bucketed index. Open pieces live in a bucket;
// partial pieces are being downloaded (the client finishes them
// block by block); have pieces are verified locally. Neither of the
// last two is ever picked again.
const (
	pieceOpen uint8 = iota
	piecePartial
	pieceHave
)

// NewPicker returns a picker for n pieces.
func NewPicker(n int, rng *rand.Rand) *Picker {
	pk := &Picker{
		avail: make([]int, n),
		rng:   rng,
		state: make([]uint8, n),
	}
	// Every piece starts open at availability 0.
	pk.buckets = append(pk.buckets, bucket{bits: make([]byte, (n+7)/8), count: n})
	b := &pk.buckets[0]
	for i := range b.bits {
		b.bits[i] = 0xFF
	}
	if tail := n % 8; tail != 0 {
		b.bits[len(b.bits)-1] = 0xFF << (8 - tail)
	}
	if n == 0 {
		b.bits = b.bits[:0]
	}
	return pk
}

// ensureBucket grows the bucket slice to cover availability a.
func (pk *Picker) ensureBucket(a int) {
	for len(pk.buckets) <= a {
		pk.buckets = append(pk.buckets, bucket{bits: make([]byte, (len(pk.avail)+7)/8)})
	}
}

// bucketAdd places open piece i into availability class a.
func (pk *Picker) bucketAdd(i, a int) {
	pk.ensureBucket(a)
	b := &pk.buckets[a]
	b.bits[i/8] |= 0x80 >> uint(i%8)
	b.count++
}

// bucketRemove takes open piece i out of availability class a.
func (pk *Picker) bucketRemove(i, a int) {
	b := &pk.buckets[a]
	b.bits[i/8] &^= 0x80 >> uint(i%8)
	b.count--
}

// addAvail adjusts piece i's availability by delta, moving it between
// buckets when it is open. Availability is clamped at zero: the client
// only removes bitfields it previously added, so the clamp never binds
// in balanced use.
func (pk *Picker) addAvail(i, delta int) {
	old := pk.avail[i]
	nw := old + delta
	if nw < 0 {
		nw = 0
	}
	pk.avail[i] = nw
	if nw != old && pk.state[i] == pieceOpen {
		pk.bucketRemove(i, old)
		pk.bucketAdd(i, nw)
	}
}

// AddBitfield counts a newly known peer's pieces.
func (pk *Picker) AddBitfield(b *Bitfield) {
	b.forEachSet(func(i int) { pk.addAvail(i, 1) })
}

// RemoveBitfield removes a departed peer's pieces from the counts.
func (pk *Picker) RemoveBitfield(b *Bitfield) {
	if b == nil {
		return
	}
	b.forEachSet(func(i int) { pk.addAvail(i, -1) })
}

// AddHave counts one piece announced by a peer. i must name a piece:
// the client drops a Have that names none before it gets here.
func (pk *Picker) AddHave(i int) { pk.addAvail(i, 1) }

// MarkPartial records that the client has started piece i: it leaves
// the availability buckets and Pick never offers it again.
func (pk *Picker) MarkPartial(i int) {
	if pk.state[i] == pieceOpen {
		pk.bucketRemove(i, pk.avail[i])
		pk.state[i] = piecePartial
	}
}

// MarkHave records that piece i is verified locally, whether it was
// partial or open: it will never be picked again. Pick still filters
// candidates against the caller's have bitfield, so calling MarkHave
// is an optimization, not a correctness requirement.
func (pk *Picker) MarkHave(i int) {
	if pk.state[i] == pieceOpen {
		pk.bucketRemove(i, pk.avail[i])
	}
	pk.state[i] = pieceHave
}

// Pick chooses a fresh piece to start downloading from a peer. have is
// the local bitfield; peerHas is the candidate peer's. Partial pieces
// are never candidates. It returns -1 when the peer has no open piece
// the client lacks.
func (pk *Picker) Pick(have, peerHas *Bitfield) int {
	// 1. A random first piece. The client holds none, so every piece
	// that is not partial is open.
	if have.Count() == 0 {
		candidates := pk.scratch[:0]
		for i := range pk.state {
			if pk.state[i] != piecePartial && peerHas.Has(i) {
				candidates = append(candidates, i)
			}
		}
		pk.scratch = candidates[:0]
		if len(candidates) == 0 {
			return -1
		}
		return candidates[pk.rng.Intn(len(candidates))]
	}
	// 2. Rarest first with random tie-break: the first availability
	// bucket with an eligible piece holds exactly the linear scan's
	// minimum-availability tie set. Bucket bitmaps only ever set bits
	// for valid pieces, so masking with them also discards any stray
	// trailing bits a wire bitfield may carry.
	hb, pb := have.bits, peerHas.bits
	for a := range pk.buckets {
		b := &pk.buckets[a]
		if b.count == 0 {
			continue
		}
		ties := pk.scratch[:0]
		limit := len(b.bits)
		if len(pb) < limit {
			limit = len(pb)
		}
		for j := 0; j < limit; j++ {
			w := b.bits[j] & pb[j]
			if j < len(hb) {
				w &^= hb[j]
			}
			for w != 0 {
				lz := bits.LeadingZeros8(w)
				w &^= 0x80 >> uint(lz)
				ties = append(ties, j*8+lz)
			}
		}
		pk.scratch = ties[:0]
		switch {
		case len(ties) > 1:
			return ties[pk.rng.Intn(len(ties))]
		case len(ties) == 1:
			return ties[0]
		}
	}
	return -1
}
