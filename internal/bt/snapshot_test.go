package bt

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// longFat is a high-bandwidth high-latency path: the regime where a
// fixed 5-deep request pipeline (80 KiB in flight) caps throughput at
// 80 KiB/RTT regardless of link capacity.
var longFat = topo.LinkClass{Name: "longfat", Down: 100 * netem.Mbps, Up: 100 * netem.Mbps, Latency: 50 * time.Millisecond}

func TestTokenBucketNilWhenUnlimited(t *testing.T) {
	if NewTokenBucket(0, 1<<20) != nil {
		t.Fatal("rate 0 should mean unlimited (nil bucket)")
	}
	if NewTokenBucket(-5, 0) != nil {
		t.Fatal("negative rate should mean unlimited (nil bucket)")
	}
}

func TestTokenBucketBurstClamp(t *testing.T) {
	// A burst below one max wire block is clamped up, so a full-size
	// block request can always eventually be admitted.
	tb := NewTokenBucket(1024, 1)
	if got := tb.Take(sim.Time(0), 128*1024); got != 0 {
		t.Fatalf("full clamped bucket refused a 128 KiB block: wait %v", got)
	}
}

func TestTokenBucketTakeAndRefill(t *testing.T) {
	t0 := sim.Time(0)
	tb := NewTokenBucket(1024, 128*1024) // 1 KiB/s, 128 KiB burst
	if w := tb.Take(t0, 128*1024); w != 0 {
		t.Fatalf("bucket created full, got wait %v", w)
	}
	// Empty now: 1024 bytes at 1024 B/s is exactly one virtual second,
	// and the failed Take must not debit.
	w := tb.Take(t0, 1024)
	if w != time.Second {
		t.Fatalf("wait = %v, want exactly 1s", w)
	}
	if got := tb.Take(t0.Add(w), 1024); got != 0 {
		t.Fatalf("bucket not refilled after its own predicted wait: %v", got)
	}
	// Drained again; half a block costs half the time.
	if w := tb.Take(t0.Add(time.Second), 512); w != 500*time.Millisecond {
		t.Fatalf("wait = %v, want 500ms", w)
	}
}

// TestClientHonorsAnnounceInterval pins the interval-driven re-announce
// path: a client whose peer set is healthy (MinPeers disabled) must
// still re-announce on the tracker's advertised 30-minute interval. The
// old client parsed only "peers" out of the response and announced
// again only when starved, so a tracker's interval was dead
// configuration. Virtual time makes the 150 minutes cheap.
func TestClientHonorsAnnounceInterval(t *testing.T) {
	k, _, trk, hosts := swarmEnv(t, 5, 1, fastClass)
	tracker := NewTracker(trk)
	meta, err := SyntheticTorrent("t", 512*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	cfg := DefaultClientConfig()
	cfg.MinPeers = 0 // disable the starvation re-announce path entirely
	c := NewClient(hosts[0], meta, NewBitfield(meta.NumPieces()), trkEP, cfg)
	c.Start()
	k.Go("watchdog", func(p *sim.Proc) {
		p.Sleep(150 * time.Minute)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.announceIvl != 30*time.Minute {
		t.Fatalf("client recorded interval %v, want 30m", c.announceIvl)
	}
	// t=0 started + periodic at 30/60/90/120 (tick-quantized): the
	// tracker last heard from the client at the 120 min re-announce.
	if got := tracker.swarms[meta.InfoHash()].order[0].lastSeen; got < sim.Time(120*time.Minute) {
		t.Fatalf("last announce in 150m at a 30m interval at %v, want >= 120m", got)
	}
}

// TestTrackerExpiresSilentPeers pins churn-storm-style expiry: a peer
// that vanishes without EventStopped must stop being handed out after
// ~2 missed intervals. The old tracker kept dead endpoints forever,
// burning every other peer's dial budget on guaranteed-failed dials.
func TestTrackerExpiresSilentPeers(t *testing.T) {
	k, _, trk, hosts := swarmEnv(t, 9, 2, fastClass)
	tracker := NewTracker(trk) // 30 min interval, ttl 60 min
	meta, err := SyntheticTorrent("t", 512*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	k.Go("seq", func(p *sim.Proc) {
		// A registers, then goes silent (a crash, not a Stop).
		if _, _, err := AnnounceRequest(p, hosts[0], trkEP, &announceReq{infoHash: meta.InfoHash(), port: 6881, event: EventStarted, left: meta.Length, numWant: 50}); err != nil {
			t.Errorf("announce A: %v", err)
		}
		first, _, err := AnnounceRequest(p, hosts[1], trkEP, &announceReq{infoHash: meta.InfoHash(), port: 6881, event: EventStarted, left: meta.Length, numWant: 50})
		if err != nil {
			t.Errorf("announce B: %v", err)
		}
		if len(first) != 1 {
			t.Errorf("B's first announce saw %d peers, want 1 (A alive)", len(first))
		}
		// B keeps announcing on schedule; A stays silent past 2 intervals.
		var last []ip.Endpoint
		for i := 0; i < 3; i++ {
			p.Sleep(DefaultAnnounceInterval)
			last, _, err = AnnounceRequest(p, hosts[1], trkEP, &announceReq{infoHash: meta.InfoHash(), port: 6881, event: EventEmpty, left: meta.Length, numWant: 50})
			if err != nil {
				t.Errorf("re-announce B: %v", err)
			}
		}
		if len(last) != 0 {
			t.Errorf("vanished peer still handed out after expiry: %v", last)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tracker.PeerCount(meta.InfoHash()); got != 1 {
		t.Fatalf("registered peers after expiry = %d, want 1 (the live announcer)", got)
	}
}

// TestWebSeedColdFill is the CDN-fill scenario in miniature: no seeders
// at all, one web seed, one client. The client must complete entirely
// from the web seed.
func TestWebSeedColdFill(t *testing.T) {
	k, _, trk, hosts := swarmEnv(t, 11, 2, fastClass)
	NewTracker(trk)
	const fileSize = 4 << 20
	meta, err := SyntheticTorrent("snap", fileSize, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWebSeed(hosts[0], meta)
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	cfg := DefaultClientConfig()
	cfg.WebSeeds = []ip.Endpoint{ws.Endpoint()}
	c := NewClient(hosts[1], meta, NewBitfield(meta.NumPieces()), trkEP, cfg)
	c.OnComplete = func(*Client, sim.Time) { k.Stop() }
	c.Start()
	k.Go("watchdog", func(p *sim.Proc) {
		p.Sleep(10 * time.Minute)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Done() {
		t.Fatal("client did not complete from the web seed alone")
	}
	if got := ws.bytes.Value(); got < fileSize {
		t.Fatalf("web seed served %d bytes, want >= %d", got, fileSize)
	}
	if c.wsConns != 1 || len(c.peers) != 1 || !c.peers[0].webseed {
		t.Fatalf("expected exactly one web-seed pseudo-peer, got wsConns=%d peers=%d", c.wsConns, len(c.peers))
	}
}

// TestSparseWriteBlockRejectsMisaligned feeds onBlock three piece
// messages that name no block of the torrent: an index past the last
// piece (which indexed past the picker's tables and panicked), an
// offset off a block boundary and an offset past the piece's end (each
// of which left a phantom partial piece behind). None may touch the
// partial pieces, the picker or the request refcounts; an aligned block
// still goes in.
func TestSparseWriteBlockRejectsMisaligned(t *testing.T) {
	meta, err := SyntheticTorrent("t", 512*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	state := func(c *Client) string {
		var b strings.Builder
		for _, pi := range c.partialOrder {
			fmt.Fprintf(&b, "%d:%v ", pi, *c.partials[pi])
		}
		pk := c.picker
		fmt.Fprint(&b, pk.state, pk.avail, pk.buckets)
		return b.String()
	}
	onBlocks(t, meta, func(c *Client, deliver func(Msg)) {
		deliver(blockMsg(1, 0)) // a partial piece and a refcount for the checks to keep
		c.partials[1].req[1] = 1
		before := state(c)
		for _, m := range []Msg{
			{ID: MsgPiece, Index: meta.NumPieces(), Begin: 0, Length: BlockLength},
			{ID: MsgPiece, Index: 0, Begin: BlockLength / 2, Length: BlockLength},
			{ID: MsgPiece, Index: 0, Begin: meta.BlocksIn(0) * BlockLength, Length: BlockLength},
		} {
			deliver(m)
			if got := state(c); got != before {
				t.Errorf("%v changed client state:\n got %s\nwant %s", m, got, before)
			}
		}
		deliver(blockMsg(0, 1))
		if pp := c.partials[0]; pp == nil || !pp.has(1) {
			t.Error("aligned block rejected")
		}
	})
}

// TestOutOfRangeHaveIgnored sends Haves that name no piece. Bitfield.Set
// ignores them, but the useful-piece count once went up anyway, making
// a peer with nothing we need look interesting. They must change no
// interest state and no availability.
func TestOutOfRangeHaveIgnored(t *testing.T) {
	meta, err := SyntheticTorrent("t", 512*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := meta.NumPieces()
	inLeecher(t, meta, func(p *sim.Proc, c *Client) {
		// The peer has piece 0, which we need; nil conn: nothing below
		// may send to it.
		pr := newPeer(nil, ip.MustParseAddr("10.9.0.1"), n)
		pr.bits.Set(0)
		c.picker.AddHave(0)
		pr.useful, pr.amInterested = 1, true
		before := fmt.Sprint(c.picker.avail, c.picker.buckets)
		for _, i := range []int{n, n, n + 7, -1} {
			c.onMsg(p, pr, Msg{ID: MsgHave, Index: i})
		}
		if pr.useful != 1 || !pr.amInterested || pr.bits.Count() != 1 {
			t.Errorf("useful %d, interested %v, peer pieces %d; want 1, true, 1", pr.useful, pr.amInterested, pr.bits.Count())
		}
		if got := fmt.Sprint(c.picker.avail, c.picker.buckets); got != before {
			t.Errorf("availability changed:\n got %s\nwant %s", got, before)
		}
	})
}

// TestLateDuplicateChangesNoCount delivers an endgame duplicate whose
// request outlived its piece: the piece completed from another peer
// while the request was still in flight. Releasing it must find no
// record to decrement and touch no other piece's counts.
func TestLateDuplicateChangesNoCount(t *testing.T) {
	meta, err := SyntheticTorrent("t", 2*2*BlockLength, 2*BlockLength) // 2 pieces of 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	inLeecher(t, meta, func(p *sim.Proc, c *Client) {
		// Unregistered peers that choke us: onPieceDone sends them no
		// Have or cancel, and no pipeline refill is sent.
		a := newPeer(nil, ip.MustParseAddr("10.9.0.1"), 2)
		b := newPeer(nil, ip.MustParseAddr("10.9.0.2"), 2)
		c.onBlock(p, a, blockMsg(0, 0))
		c.onBlock(p, a, blockMsg(1, 0))
		request(c, a, 0, 1)
		request(c, b, 0, 1) // the endgame duplicate
		request(c, b, 1, 1)
		c.onBlock(p, a, blockMsg(0, 1))
		if !c.have.Has(0) || c.partials[0] != nil {
			t.Fatal("piece 0 did not complete")
		}
		before := fmt.Sprint(*c.partials[1])
		c.onBlock(p, b, blockMsg(0, 1))
		if len(b.inflight) != 1 || b.inflight[0].piece != 1 {
			t.Errorf("b's in-flight set = %v, want only piece 1's request", b.inflight)
		}
		if got := fmt.Sprint(*c.partials[1]); got != before {
			t.Errorf("piece 1 changed:\n got %s\nwant %s", got, before)
		}
	})
}

// transferTime runs a 1-seeder/1-leecher swarm under the given link
// model and returns the leecher's completion instant.
func transferTime(t *testing.T, seed int64, model netem.ModelKind, class topo.LinkClass,
	cfg ClientConfig, fileSize int64, pieceLen int, horizon time.Duration) time.Duration {
	t.Helper()
	k := sim.New(seed)
	ncfg := vnet.DefaultConfig()
	ncfg.Model = model
	net := vnet.NewNetwork(k, nil, ncfg)
	trk, err := net.AddHostClass(ip.MustParseAddr("10.200.0.1"), topo.LAN)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*vnet.Host
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < 2; i++ {
		h, err := net.AddHostClass(base.Add(uint32(i)), class)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	spec := SwarmSpec{FileSize: fileSize, PieceLength: pieceLen, Client: cfg}
	s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:])
	if err != nil {
		t.Fatal(err)
	}
	s.Start(0)
	var done bool
	k.Go("waiter", func(p *sim.Proc) {
		done = s.WaitAll(p, horizon)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("transfer did not complete within %v", horizon)
	}
	return time.Duration(s.Clients[0].FinishedAt())
}

// TestPipelineDepthAutoScaleLongFat is the elephant-flow property test
// at 2 MiB pieces, under both link models: on a long fat pipe the
// auto-scaled pipeline (PipelineDepth 0 → blocks-per-piece) must beat
// the fixed mainline depth of 5 by a wide margin, because 80 KiB in
// flight caps a 100 Mbps/100 ms-RTT path at ~800 KiB/s. Also exercises
// the multi-word block bitmaps on the real download path (128 blocks
// per piece).
func TestPipelineDepthAutoScaleLongFat(t *testing.T) {
	const fileSize = 8 << 20
	const pieceLen = 2 << 20
	for _, model := range []netem.ModelKind{netem.ModelPipe, netem.ModelFlow} {
		fixed := DefaultClientConfig()
		auto := fixed
		auto.PipelineDepth = 0 // auto-scale to blocks-per-piece

		tFixed := transferTime(t, 21, model, longFat, fixed, fileSize, pieceLen, 30*time.Minute)
		tAuto := transferTime(t, 21, model, longFat, auto, fileSize, pieceLen, 30*time.Minute)
		if 2*tAuto > tFixed {
			t.Fatalf("model %v: auto depth %v not ≥2x faster than fixed depth %v", model, tAuto, tFixed)
		}
	}
}

// TestRateLimitedTransferDeterministic pins two properties of the
// token-bucket path: the cap actually bounds throughput (a capped run
// is slower than an uncapped one by at least the metered difference),
// and a rate-limited run is bit-deterministic — two identical runs
// finish at the identical virtual instant.
func TestRateLimitedTransferDeterministic(t *testing.T) {
	const fileSize = 1 << 20
	const pieceLen = 64 << 10 // the derived burst, twice the piece, is 128 KiB
	cfg := DefaultClientConfig()
	capped := cfg
	capped.UploadRate = 256 * 1024 // seeder-side cap: 256 KiB/s

	tFree := transferTime(t, 31, netem.ModelPipe, fastClass, cfg, fileSize, pieceLen, 10*time.Minute)
	tCap1 := transferTime(t, 31, netem.ModelPipe, fastClass, capped, fileSize, pieceLen, 10*time.Minute)
	tCap2 := transferTime(t, 31, netem.ModelPipe, fastClass, capped, fileSize, pieceLen, 10*time.Minute)
	if tCap1 != tCap2 {
		t.Fatalf("rate-limited run not deterministic: %v vs %v", tCap1, tCap2)
	}
	// 1 MiB minus the 128 KiB burst at 256 KiB/s is 3.5 s of metering.
	if tCap1 < tFree+2500*time.Millisecond {
		t.Fatalf("upload cap not enforced: capped %v vs uncapped %v", tCap1, tFree)
	}
}
