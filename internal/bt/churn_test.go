package bt

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestClientStopClosesEverything(t *testing.T) {
	spec := DefaultSwarmSpec()
	spec.FileSize = 1 << 20
	// hosts[4] joins no swarm: it only asks the tracker who is left.
	k, _, trk, hosts := swarmEnv(t, 1, 5, fastClass)
	s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:4])
	if err != nil {
		t.Fatal(err)
	}
	s.Start(time.Second)
	victim := s.Clients[0]
	k.After(sim.Duration(10*time.Second), victim.Stop)
	var listed []ip.Endpoint
	k.Go("waiter", func(p *sim.Proc) {
		// The two surviving clients must still finish.
		for s.CompletedCount() < 2 {
			p.Sleep(5 * time.Second)
			if p.Now() > sim.Time(30*time.Minute) {
				t.Error("survivors did not finish")
				break
			}
		}
		// Well inside the tracker's expiry horizon, so only the
		// stopped announce can have removed the victim.
		trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
		listed, _, err = AnnounceRequest(p, hosts[4], trkEP, &announceReq{infoHash: s.Meta.InfoHash(), port: int64(peerPort), event: EventStarted, left: s.Meta.Length, numWant: MaxNumWant})
		if err != nil {
			t.Error(err)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !victim.Stopped() {
		t.Fatal("victim should report stopped")
	}
	if victim.Done() {
		t.Fatal("victim stopped at 10s cannot have finished a 1MB file on these settings... unless it did; adjust test")
	}
	// The seeder and the two survivors stay registered; the victim
	// announced its stop and is gone.
	if len(listed) != 3 {
		t.Fatalf("tracker lists %v, want the seeder and two survivors", listed)
	}
	for _, ep := range listed {
		if ep.Addr == victim.h.Addr() {
			t.Fatalf("tracker still lists the stopped client at %v", ep)
		}
	}
}

func TestClientResumeFromKeptStorage(t *testing.T) {
	// A client downloads partially, departs, and a new client instance
	// on the same host resumes from the same Bitfield and completes.
	// DSL links make the 2 MiB download take minutes, so the 60 s
	// first session is genuinely partial.
	spec := DefaultSwarmSpec()
	spec.FileSize = 2 << 20
	k, _, trk, hosts := swarmEnv(t, 3, 3, topo.DSL)
	s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:2])
	if err != nil {
		t.Fatal(err)
	}
	// A separate host for the churner, sharing the same torrent.
	churnHost := hosts[2]
	have := NewBitfield(s.Meta.NumPieces())
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	first := NewClient(churnHost, s.Meta, have, trkEP, DefaultClientConfig())

	s.Start(0)
	first.Start()
	k.After(sim.Duration(60*time.Second), first.Stop)

	var resumed *Client
	var resumedDone bool
	var firstSessionBytes int64
	k.After(sim.Duration(90*time.Second), func() {
		firstSessionBytes = first.BytesDone()
		resumed = NewClient(churnHost, s.Meta, have, trkEP, DefaultClientConfig())
		resumed.OnComplete = func(*Client, sim.Time) { resumedDone = true }
		resumed.Start()
	})
	k.Go("waiter", func(p *sim.Proc) {
		for !resumedDone && p.Now() < sim.Time(time.Hour) {
			p.Sleep(10 * time.Second)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumedDone {
		t.Fatal("resumed client never completed")
	}
	if firstSessionBytes == 0 {
		t.Fatal("first session downloaded nothing in 60s; resume untested")
	}
	if firstSessionBytes >= s.Meta.Length {
		t.Fatal("first session finished before the stop; resume untested")
	}
	if n := len(resumed.Progress()); n >= s.Meta.NumPieces() {
		t.Fatalf("resumed client re-downloaded all %d pieces; Bitfield not reused", n)
	}
}

func TestSwarmSurvivesSeederChurnWithPeerSeeds(t *testing.T) {
	// Once at least one client finishes, killing the original seeder
	// must not prevent the rest from completing (the paper's "they
	// stay online and become seeders" behaviour is what keeps the
	// swarm alive).
	spec := DefaultSwarmSpec()
	spec.FileSize = 1 << 20
	k, _, trk, hosts := swarmEnv(t, 5, 5, fastClass)
	s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:])
	if err != nil {
		t.Fatal(err)
	}
	// Kill the seeder deterministically at the first completion.
	killed := false
	for _, c := range s.Clients {
		prev := c.OnComplete
		c.OnComplete = func(cl *Client, at sim.Time) {
			if prev != nil {
				prev(cl, at)
			}
			if !killed {
				killed = true
				s.Seeders[0].Stop()
			}
		}
	}
	s.Start(time.Second)
	k.Go("waiter", func(p *sim.Proc) {
		if !s.WaitAll(p, 30*time.Minute) {
			t.Errorf("swarm stalled after seeder death: %d/%d", s.CompletedCount(), len(s.Clients))
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("seeder was never stopped (no client completed)")
	}
}
