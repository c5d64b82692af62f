package bt

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// swarmEnv creates a kernel, network, tracker host and n node hosts on
// the given link class.
func swarmEnv(t *testing.T, seed int64, n int, class topo.LinkClass) (*sim.Kernel, *vnet.Network, *vnet.Host, []*vnet.Host) {
	t.Helper()
	k := sim.New(seed)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	trk, err := net.AddHostClass(ip.MustParseAddr("10.200.0.1"), topo.LAN)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*vnet.Host
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < n; i++ {
		h, err := net.AddHostClass(base.Add(uint32(i)), class)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return k, net, trk, hosts
}

// fastClass is a quick link for functional tests (seconds, not hours).
var fastClass = topo.LinkClass{Name: "fast", Down: 100 * netem.Mbps, Up: 100 * netem.Mbps, Latency: 5 * time.Millisecond}

func TestTrackerAnnounceAndPeerList(t *testing.T) {
	k, _, trk, hosts := swarmEnv(t, 1, 3, fastClass)
	tracker := NewTracker(trk)
	m, _ := SyntheticTorrent("t", 512*1024, 0)
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	var got [][]ip.Endpoint
	k.Go("announcers", func(p *sim.Proc) {
		for _, h := range hosts {
			peers, _, err := AnnounceRequest(p, h, trkEP, m.InfoHash(), 6881, EventStarted, m.Length, 50)
			if err != nil {
				t.Errorf("announce: %v", err)
				return
			}
			got = append(got, peers)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("announces = %d", len(got))
	}
	if len(got[0]) != 0 {
		t.Fatalf("first announcer should see no peers, got %v", got[0])
	}
	if len(got[2]) != 2 {
		t.Fatalf("third announcer should see 2 peers, got %v", got[2])
	}
	if tracker.PeerCount(m.InfoHash()) != 3 {
		t.Fatalf("peer count = %d", tracker.PeerCount(m.InfoHash()))
	}
}

func TestTrackerStoppedRemovesPeer(t *testing.T) {
	k, _, trk, hosts := swarmEnv(t, 1, 1, fastClass)
	tracker := NewTracker(trk)
	m, _ := SyntheticTorrent("t", 512*1024, 0)
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	k.Go("a", func(p *sim.Proc) {
		AnnounceRequest(p, hosts[0], trkEP, m.InfoHash(), 6881, EventStarted, m.Length, 50)
		AnnounceRequest(p, hosts[0], trkEP, m.InfoHash(), 6881, EventStopped, m.Length, 50)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tracker.PeerCount(m.InfoHash()) != 0 {
		t.Fatalf("peer count after stop = %d", tracker.PeerCount(m.InfoHash()))
	}
}

func TestTrackerCompletedCount(t *testing.T) {
	k, _, trk, hosts := swarmEnv(t, 1, 1, fastClass)
	tracker := NewTracker(trk)
	m, _ := SyntheticTorrent("t", 512*1024, 0)
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	k.Go("a", func(p *sim.Proc) {
		AnnounceRequest(p, hosts[0], trkEP, m.InfoHash(), 6881, EventStarted, m.Length, 50)
		AnnounceRequest(p, hosts[0], trkEP, m.InfoHash(), 6881, EventCompleted, 0, 50)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A completed peer stays in the tracker's count: its completed
	// announce refreshes the registration instead of adding a second
	// one or dropping it.
	if tracker.PeerCount(m.InfoHash()) != 1 {
		t.Fatalf("peer count after completed = %d", tracker.PeerCount(m.InfoHash()))
	}
}

// runSwarm executes a swarm to completion and returns it.
func runSwarm(t *testing.T, spec SwarmSpec, seeders, clients int, class topo.LinkClass, horizon time.Duration) *Swarm {
	t.Helper()
	k, _, trk, hosts := swarmEnv(t, 1, seeders+clients, class)
	s, err := BuildSwarm(spec, trk, hosts[:seeders], hosts[seeders:])
	if err != nil {
		t.Fatal(err)
	}
	s.Start(time.Second)
	var allDone bool
	k.Go("waiter", func(p *sim.Proc) {
		allDone = s.WaitAll(p, horizon)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !allDone {
		t.Fatalf("swarm did not complete within %v: %d/%d done",
			horizon, s.CompletedCount(), len(s.Clients))
	}
	return s
}

func TestSwarmSparseEndToEnd(t *testing.T) {
	spec := DefaultSwarmSpec()
	spec.FileSize = 2 << 20
	s := runSwarm(t, spec, 1, 5, fastClass, 10*time.Minute)
	for i, c := range s.Clients {
		if !c.Done() {
			t.Fatalf("client %d not done", i)
		}
		if c.FinishedAt() == 0 {
			t.Fatalf("client %d has no finish time", i)
		}
	}
}

func TestSwarmProgressMonotone(t *testing.T) {
	spec := DefaultSwarmSpec()
	spec.FileSize = 1 << 20
	s := runSwarm(t, spec, 1, 3, fastClass, 10*time.Minute)
	for i, c := range s.Clients {
		prog := c.Progress()
		if len(prog) != s.Meta.NumPieces() {
			t.Fatalf("client %d: %d progress points, want %d", i, len(prog), s.Meta.NumPieces())
		}
		for j := 1; j < len(prog); j++ {
			if prog[j].At < prog[j-1].At || prog[j].Bytes <= prog[j-1].Bytes {
				t.Fatalf("client %d progress not monotone at %d", i, j)
			}
		}
		if prog[len(prog)-1].Bytes != s.Meta.Length {
			t.Fatalf("client %d final bytes = %d", i, prog[len(prog)-1].Bytes)
		}
	}
}

func TestSwarmPeersActuallyShare(t *testing.T) {
	// With one slow seeder and several clients, peers must exchange
	// data among themselves.
	spec := DefaultSwarmSpec()
	spec.FileSize = 2 << 20
	s := runSwarm(t, spec, 1, 6, topo.DSL, 4*time.Hour)
	var last sim.Time
	for _, c := range s.Clients {
		last = max(last, c.FinishedAt())
	}
	// 6 clients × 2 MB = 12 MB total demand. The single seeder's
	// contribution is bounded by its up-link times the run's length, so
	// a run that short means the swarm supplied at least half.
	seeded := float64(topo.DSL.Up) / 8 * time.Duration(last).Seconds()
	if seeded >= 6<<20 {
		t.Fatalf("last client done at %v: the seeder alone could have sent %.0f bytes, swarm is not sharing", last, seeded)
	}
}

func TestSwarmDeterminism(t *testing.T) {
	spec := DefaultSwarmSpec()
	spec.FileSize = 1 << 20
	runOnce := func() []sim.Time {
		k, _, trk, hosts := swarmEnv(t, 42, 4, fastClass)
		s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:])
		if err != nil {
			t.Fatal(err)
		}
		s.Start(time.Second)
		k.Go("waiter", func(p *sim.Proc) {
			s.WaitAll(p, time.Hour)
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return s.CompletionTimes()
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeederNeverDownloads(t *testing.T) {
	spec := DefaultSwarmSpec()
	spec.FileSize = 1 << 20
	s := runSwarm(t, spec, 1, 2, fastClass, 10*time.Minute)
	// Every received block is sampled by the peer's download estimator
	// before onBlock looks at the piece, and connections stay open
	// when the swarm completes, so a seeder that never downloaded has
	// no download sample on any peer. Its upload samples show the
	// check is not vacuous.
	seeder := s.Seeders[0]
	uploaded := false
	for _, pr := range seeder.peers {
		if pr.downRate.started || pr.downRate.first != 0 {
			t.Fatalf("seeder received a block from %v", pr.addr)
		}
		uploaded = uploaded || pr.upRate.started
	}
	if !uploaded {
		t.Fatalf("seeder uploaded to none of its %d peers", len(seeder.peers))
	}
	if !s.Seeders[0].Done() {
		t.Fatal("seeder should report done")
	}
}

func TestCompletedClientsSeedOthers(t *testing.T) {
	// The paper: "when the clients have finished the download of the
	// file, they stay online and become seeders". Late-started clients
	// must receive data from early finishers.
	spec := DefaultSwarmSpec()
	spec.FileSize = 1 << 20
	k, _, trk, hosts := swarmEnv(t, 7, 4, fastClass)
	s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:])
	if err != nil {
		t.Fatal(err)
	}
	// Big stagger: client 3 starts long after 1 and 2 finish.
	s.Start(30 * time.Second)
	k.Go("waiter", func(p *sim.Proc) {
		s.WaitAll(p, time.Hour)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.CompletedCount() != 3 {
		t.Fatalf("completed = %d", s.CompletedCount())
	}
	// A peer's upload estimator records its first sample's instant
	// (clients start after t = 0), and keeps it across idle windows.
	uploaded := false
	for _, c := range s.Clients[:2] {
		for _, pr := range c.peers {
			uploaded = uploaded || pr.upRate.first > 0
		}
	}
	if !uploaded {
		t.Fatal("early finishers uploaded nothing; they are not seeding")
	}
}

func TestSwarmCompletesOverLossyLinks(t *testing.T) {
	// Failure injection: 2% message loss on every access link. The
	// reliable-connection layer retransmits, so the swarm must still
	// complete.
	lossy := topo.LinkClass{
		Name: "lossy", Down: 100 * netem.Mbps, Up: 100 * netem.Mbps,
		Latency: 5 * time.Millisecond, Loss: 0.02,
	}
	spec := SwarmSpec{
		FileSize: 1 << 20, PieceLength: DefaultPieceLength,
		Client: DefaultClientConfig(),
	}
	k, n, trk, hosts := swarmEnv(t, 1, 4, lossy)
	s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:])
	if err != nil {
		t.Fatal(err)
	}
	s.Start(time.Second)
	var allDone bool
	k.Go("waiter", func(p *sim.Proc) {
		allDone = s.WaitAll(p, time.Hour)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !allDone {
		t.Fatalf("lossy swarm incomplete: %d/%d", s.CompletedCount(), len(s.Clients))
	}
	if n.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions on a 2% lossy network")
	}
}

func TestSwarmDSLTimescale(t *testing.T) {
	// Sanity-check absolute time: 4 DSL clients (128 kb/s up), 1 LAN
	// seeder, 2 MB file. Aggregate upload ≈ seeder unbounded... use a
	// DSL seeder so capacity ≈ 5×128 kb/s; 4×2 MB demand ⇒ ≥ ~105 s.
	spec := DefaultSwarmSpec()
	spec.FileSize = 2 << 20
	s := runSwarm(t, spec, 1, 4, topo.DSL, 4*time.Hour)
	var last sim.Time
	for _, ft := range s.CompletionTimes() {
		if ft > last {
			last = ft
		}
	}
	if last < sim.Time(100*time.Second) {
		t.Fatalf("swarm finished impossibly fast: %v", last)
	}
	if last > sim.Time(1*time.Hour) {
		t.Fatalf("swarm took too long: %v", last)
	}
}
