package bt

import (
	"math/bits"
	"math/rand"
)

// Picker implements the mainline client's piece-selection policy:
//
//   - strict priority to finishing partially downloaded pieces;
//   - random first pieces while the client has fewer than a threshold
//     of complete pieces (get something uploadable fast);
//   - rarest-first afterwards, with random tie-breaking among equally
//     rare pieces;
//   - endgame (handled by the client) once everything is requested.
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
	meta    *Picks
	avail   []int // how many known peers have each piece
	partial map[int]bool
	rng     *rand.Rand

	// RandomFirstThreshold is how many pieces to pick randomly before
	// switching to rarest-first (mainline: 1 in 4.x; configurable).
	RandomFirstThreshold int

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
// partial pieces are in the partial map (strict-priority step); have
// pieces are verified locally and permanently out of rarest-first.
const (
	pieceOpen uint8 = iota
	piecePartial
	pieceHave
)

// Picks carries the sizing the picker needs (decoupled from MetaInfo
// for testability).
type Picks struct {
	NumPieces int
}

// NewPicker returns a picker for n pieces.
func NewPicker(n int, rng *rand.Rand) *Picker {
	pk := &Picker{
		meta:                 &Picks{NumPieces: n},
		avail:                make([]int, n),
		partial:              make(map[int]bool),
		rng:                  rng,
		RandomFirstThreshold: 1,
		state:                make([]uint8, n),
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
		pk.buckets = append(pk.buckets, bucket{bits: make([]byte, (pk.meta.NumPieces+7)/8)})
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

// AddHave counts one piece announced by a peer.
func (pk *Picker) AddHave(i int) {
	if i >= 0 && i < len(pk.avail) {
		pk.addAvail(i, 1)
	}
}

// MarkPartial records that a piece has outstanding or completed blocks
// and should be finished before new pieces are started.
func (pk *Picker) MarkPartial(i int) {
	pk.partial[i] = true
	if pk.state[i] == pieceOpen {
		pk.bucketRemove(i, pk.avail[i])
		pk.state[i] = piecePartial
	}
}

// ClearPartial removes a piece from the partial set (completed or
// abandoned). An abandoned piece rejoins its availability bucket; a
// completed one leaves rarest-first for good via MarkHave.
func (pk *Picker) ClearPartial(i int) {
	delete(pk.partial, i)
	if i >= 0 && i < len(pk.state) && pk.state[i] == piecePartial {
		pk.bucketAdd(i, pk.avail[i])
		pk.state[i] = pieceOpen
	}
}

// MarkHave records that piece i is verified locally: it will never be
// picked again, so it leaves the availability buckets permanently.
// Pick still filters candidates against the caller's have bitfield, so
// calling MarkHave is an optimization, not a correctness requirement.
func (pk *Picker) MarkHave(i int) {
	if i < 0 || i >= len(pk.state) {
		return
	}
	if pk.state[i] == pieceOpen {
		pk.bucketRemove(i, pk.avail[i])
	}
	pk.state[i] = pieceHave
}

// Pick chooses the next piece to download. have is the local bitfield;
// peerHas is the candidate peer's; inFlight reports pieces already fully
// requested. It returns -1 when the peer has nothing useful.
func (pk *Picker) Pick(have, peerHas *Bitfield, inFlight func(int) bool) int {
	// 1. Finish partial pieces first. Ties on availability break to
	// the lowest index: map iteration order is randomized per run and
	// piece selection must be deterministic for a fixed seed.
	best := -1
	bestAvail := int(^uint(0) >> 1)
	//lint:allow maporder deterministic argmin: the (avail, index) minimum is unique, so the result is independent of visit order
	for i := range pk.partial {
		if have.Has(i) || !peerHas.Has(i) || inFlight(i) {
			continue
		}
		if pk.avail[i] < bestAvail || (pk.avail[i] == bestAvail && i < best) {
			best, bestAvail = i, pk.avail[i]
		}
	}
	if best >= 0 {
		return best
	}
	// 2. Random first pieces.
	if have.Count() < pk.RandomFirstThreshold {
		candidates := pk.scratch[:0]
		for i := 0; i < pk.meta.NumPieces; i++ {
			if !have.Has(i) && peerHas.Has(i) && !inFlight(i) {
				candidates = append(candidates, i)
			}
		}
		pk.scratch = candidates[:0]
		if len(candidates) == 0 {
			return -1
		}
		return candidates[pk.rng.Intn(len(candidates))]
	}
	// 3. Rarest first with random tie-break: the first availability
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
				i := j*8 + lz
				if !inFlight(i) {
					ties = append(ties, i)
				}
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
