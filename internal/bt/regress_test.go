package bt

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestDialBudgetNotDoubleDecremented pins the dial-budget accounting:
// dialPeer's deferred evDialDone is the single decrement of c.dialing per
// attempt. The old code decremented again in onJoin for initiated
// peers, so every successful dial drove c.dialing negative and the next
// tracker response dialed past MaxInitiate.
func TestDialBudgetNotDoubleDecremented(t *testing.T) {
	const targets = 20
	const maxInitiate = 5
	k, _, trk, hosts := swarmEnv(t, 7, targets+1, fastClass)
	tracker := NewTracker(trk)
	_ = tracker

	spec := DefaultSwarmSpec()
	spec.FileSize = 512 * 1024
	meta, err := SyntheticTorrent(swarmFileName, spec.FileSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}

	// Targets: seeders that accept inbound connections.
	cfg := DefaultClientConfig()
	for _, h := range hosts[:targets] {
		s := NewClient(h, meta, Full(meta.NumPieces()), trkEP, cfg)
		s.Start()
	}

	// Client under test with a tight initiate budget.
	tcfg := DefaultClientConfig()
	tcfg.MaxInitiate = maxInitiate
	c := NewClient(hosts[targets], meta, NewBitfield(meta.NumPieces()), trkEP, tcfg)
	c.Start()

	// A 200-endpoint tracker-style response: the reachable targets
	// followed by endpoints no host answers, injected twice with time for
	// the first round's dials to resolve in between. With correct
	// accounting the second round must not dial at all.
	var eps []ip.Endpoint
	for _, h := range hosts[:targets] {
		eps = append(eps, ip.Endpoint{Addr: h.Addr(), Port: peerPort})
	}
	bogus := ip.MustParseAddr("10.99.0.1")
	for len(eps) < 200 {
		eps = append(eps, ip.Endpoint{Addr: bogus, Port: 6881})
		bogus = bogus.Add(1)
	}
	k.Go("injector", func(p *sim.Proc) {
		p.Sleep(2 * time.Second) // past startup announce
		c.events.TrySend(event{kind: evPeers, peers: eps})
		p.Sleep(20 * time.Second)
		c.events.TrySend(event{kind: evPeers, peers: eps})
		p.Sleep(20 * time.Second)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.dialing != 0 {
		t.Fatalf("dialing = %d at quiescence, want 0", c.dialing)
	}
	if got := len(c.peers); got > maxInitiate {
		t.Fatalf("connected to %d initiated peers, budget is %d", got, maxInitiate)
	}
}

// TestLargePieceDownloadCompletes pins multi-word block bitmaps: with 2
// MiB pieces (128 blocks of 16 KiB) the old single-uint64 tracking in
// pieceProgress silently corrupted receipt state for blocks past 64, so
// a download could never complete. The swarm must complete.
func TestLargePieceDownloadCompletes(t *testing.T) {
	spec := DefaultSwarmSpec()
	spec.PieceLength = 2 * 1024 * 1024
	spec.FileSize = 2 * int64(spec.PieceLength)
	runSwarm(t, spec, 1, 2, fastClass, 30*time.Minute)
}

// TestTrackerClampsNumWant pins the numwant clamp: a client asking for
// an absurd peer count gets at most MaxNumWant endpoints, not the whole
// swarm.
func TestTrackerClampsNumWant(t *testing.T) {
	k, _, trk, _ := swarmEnv(t, 5, 0, fastClass)
	_ = k
	tr := &Tracker{host: trk, swarms: make(map[[20]byte]*swarmPeers)}
	meta, _ := SyntheticTorrent("t", 512*1024, 0)
	ih := meta.InfoHash()

	announce := func(from ip.Addr, port int64, numwant int64) (*announceResp, error) {
		return tr.announce(&announceReq{infoHash: ih, port: port, event: EventStarted, left: 1, numWant: numwant}, from)
	}

	base := ip.MustParseAddr("10.50.0.1")
	for i := 0; i < MaxNumWant+100; i++ {
		if _, err := announce(base.Add(uint32(i)), 6881, 50); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := announce(ip.MustParseAddr("10.60.0.1"), 6881, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.peers) != MaxNumWant {
		t.Fatalf("response lists %d peers, want clamp at %d", len(resp.peers), MaxNumWant)
	}
}

// TestTrackerRejectsPortZero pins port validation: a registration with
// port 0 (an unreachable endpoint that would waste other peers' dial
// budgets) is refused and not added to the swarm.
func TestTrackerRejectsPortZero(t *testing.T) {
	k, _, trk, _ := swarmEnv(t, 5, 0, fastClass)
	_ = k
	tr := &Tracker{host: trk, swarms: make(map[[20]byte]*swarmPeers)}
	meta, _ := SyntheticTorrent("t", 512*1024, 0)
	ih := meta.InfoHash()
	req := &announceReq{infoHash: ih, port: 0, event: EventStarted, left: 1}
	if _, err := tr.announce(req, ip.MustParseAddr("10.50.0.1")); err == nil {
		t.Fatal("port-0 registration accepted, want error")
	}
	if got := tr.PeerCount(ih); got != 0 {
		t.Fatalf("peer count = %d after rejected announce, want 0", got)
	}
}

// TestSparseStorageManyBlocks unit-pins the multi-word receipt bitmap:
// every block of a 128-block piece must be tracked individually, so
// the piece completes only when block 100, delivered last, arrives.
func TestSparseStorageManyBlocks(t *testing.T) {
	meta, err := SyntheticTorrent("t", 2*1024*1024, 2*1024*1024) // 1 piece, 128 blocks
	if err != nil {
		t.Fatal(err)
	}
	n := meta.BlocksIn(0)
	if n != 128 {
		t.Fatalf("BlocksIn = %d, want 128", n)
	}
	onBlocks(t, meta, func(c *Client, deliver func(*Msg)) {
		for b := 0; b < n; b++ {
			if b != 100 {
				deliver(blockMsg(0, b))
			}
		}
		if c.have.Has(0) {
			t.Error("piece completed with block 100 missing")
			return
		}
		if pp := c.partials[0]; pp == nil || pp.count != n-1 || pp.has(100) {
			t.Errorf("partial piece state wrong before block 100: %+v", pp)
			return
		}
		deliver(blockMsg(0, 100))
		if !c.have.Has(0) || !c.Done() {
			t.Error("piece did not complete with all 128 blocks delivered")
		}
	})
}
