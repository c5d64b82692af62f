package bt

import (
	"math/rand"
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// BenchmarkSwarmScaleHot measures the two per-event client paths the
// megaswarm refactor makes incremental, at a piece count (2048) where
// the old O(pieces) rescans dominate:
//
//   - have: steady-state MsgHave handling on a nearly-complete
//     download — the interest recomputation's worst case, since the
//     old scan only stops at the last still-useful piece;
//   - pick: rarest-first piece selection mid-download with a realistic
//     availability spread.
//
// Both are held to 0 allocations by TestSwarmHotPathsDoNotAllocate —
// these run once per wire event (Have) and once per block request
// (Pick), so a single allocation per call is a GC storm at 10k peers.
func BenchmarkSwarmScaleHot(b *testing.B) {
	for _, path := range hotPaths {
		b.Run(path.name, func(b *testing.B) {
			op := path.setUp(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// hotPaths are the measured paths: setUp builds the state and returns
// one call of the path.
var hotPaths = []struct {
	name  string
	setUp func(testing.TB) func()
}{{"have", hotHave}, {"pick", hotPick}}

const hotPieces = 2048

// hotHave returns one steady-state MsgHave delivery.
func hotHave(tb testing.TB) func() {
	k := sim.New(1)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	h, err := net.AddHostClass(ip.MustParseAddr("10.0.0.1"), topo.LAN)
	if err != nil {
		tb.Fatal(err)
	}
	meta, err := SyntheticTorrent("hot", int64(hotPieces)*DefaultPieceLength, 0)
	if err != nil {
		tb.Fatal(err)
	}
	have := NewBitfield(meta.NumPieces())
	c := NewClient(h, meta, have, ip.Endpoint{}, DefaultClientConfig())
	// Endgame state: everything verified but the last piece, so the
	// interest scan cannot exit early.
	for i := 0; i < hotPieces-1; i++ {
		have.Set(i)
	}
	pr := newPeer(nil, ip.MustParseAddr("10.0.0.2"), hotPieces)
	c.registerPeer(pr)
	// nil conn: the steady state below never flips interest, so the
	// client never sends on this peer.
	pr.amInterested = true
	c.onMsg(nil, pr, Msg{ID: MsgBitfield, Bits: Full(hotPieces).Bytes()})
	if !pr.amInterested {
		tb.Fatal("peer should be interesting (last piece missing)")
	}
	msg := Msg{ID: MsgHave, Index: hotPieces / 2} // already set: pure recompute path
	return func() {
		c.onMsg(nil, pr, msg)
		if !pr.amInterested {
			tb.Fatal("interest flipped")
		}
	}
}

// hotPick returns one rarest-first pick mid-download.
func hotPick(tb testing.TB) func() {
	rng := rand.New(rand.NewSource(1))
	pk := NewPicker(hotPieces, rng)
	// Availability spread of a converged swarm: every piece known to
	// 1..40 peers.
	for p := 0; p < 40; p++ {
		bf := NewBitfield(hotPieces)
		for i := 0; i < hotPieces; i++ {
			if rng.Intn(40) >= p {
				bf.Set(i)
			}
		}
		pk.AddBitfield(bf)
	}
	have := NewBitfield(hotPieces)
	for i := 0; i < hotPieces; i += 2 {
		have.Set(i)
	}
	peerHas := Full(hotPieces)
	return func() {
		if pk.Pick(have, peerHas) < 0 {
			tb.Fatal("no pick")
		}
	}
}
