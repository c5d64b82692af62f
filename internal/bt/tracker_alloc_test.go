//go:build !race

package bt

import (
	"testing"

	"repro/internal/ip"
)

// TestTrackerAnnounceAllocs holds a warm announce on a 300-peer swarm
// to two allocations, the response and its peer slice, and the charged
// sizes of request and response to none. (The race detector's
// instrumentation allocates, hence the build tag.)
func TestTrackerAnnounceAllocs(t *testing.T) {
	_, _, trk, _ := swarmEnv(t, 1, 0, fastClass)
	tr := &Tracker{host: trk, swarms: make(map[[20]byte]*swarmPeers)}
	meta, _ := SyntheticTorrent("t", 512*1024, 0)
	req := &announceReq{infoHash: meta.InfoHash(), port: 6881, event: EventStarted, left: 1, numWant: DefaultNumWant}
	base := ip.MustParseAddr("10.50.0.1")
	for i := 0; i < 300; i++ {
		if _, err := tr.announce(req, base.Add(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	req.event = EventEmpty
	n := testing.AllocsPerRun(1000, func() {
		resp, err := tr.announce(req, base)
		if err != nil || len(resp.peers) != DefaultNumWant {
			t.Fatalf("announce: %+v, err %v", resp, err)
		}
	})
	if n > 2 {
		t.Errorf("warm announce: %v allocs, want <= 2", n)
	}
	resp, _ := tr.announce(req, base)
	if n := testing.AllocsPerRun(1000, func() { _ = req.size() + resp.size() }); n != 0 {
		t.Errorf("size(): %v allocs, want 0", n)
	}
}
