package bt

import (
	"crypto/sha256"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// TestObsNeutralOnRawNetwork is the nil-versus-live half of the
// observability neutrality property, where a nil registry still
// exists: a swarm on a network built without scenario.Run, with and
// without Config.Obs, must trace byte-identically and end with equal
// NetworkStats, while the live registry really counted.
func TestObsNeutralOnRawNetwork(t *testing.T) {
	run := func(reg *obs.Registry) ([32]byte, vnet.NetworkStats) {
		k := sim.New(7)
		cfg := vnet.DefaultConfig()
		cfg.Obs = reg
		net := vnet.NewNetwork(k, nil, cfg)
		lg := trace.New(0)
		net.SetTrace(lg)
		trk, err := net.AddHostClass(ip.MustParseAddr("10.200.0.1"), topo.LAN)
		if err != nil {
			t.Fatal(err)
		}
		var hosts []*vnet.Host
		for i := 0; i < 6; i++ {
			h, err := net.AddHostClass(ip.MustParseAddr("10.0.0.1").Add(uint32(i)), topo.DSL)
			if err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, h)
		}
		spec := DefaultSwarmSpec()
		spec.FileSize = 512 << 10
		s, err := BuildSwarm(spec, trk, hosts[:1], hosts[1:])
		if err != nil {
			t.Fatal(err)
		}
		s.Start(time.Second)
		k.Go("waiter", func(p *sim.Proc) {
			if !s.WaitAll(p, time.Hour) {
				t.Error("swarm did not complete")
			}
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if lg.Len() == 0 {
			t.Fatal("nothing traced")
		}
		h := sha256.New()
		if err := lg.Render(h); err != nil {
			t.Fatal(err)
		}
		return [32]byte(h.Sum(nil)), net.Stats()
	}
	bareTrace, bareStats := run(nil)
	reg := obs.NewRegistry()
	liveTrace, liveStats := run(reg)
	if bareTrace != liveTrace {
		t.Errorf("trace diverged with a registry attached: %x vs %x", bareTrace[:8], liveTrace[:8])
	}
	if bareStats != liveStats {
		t.Errorf("network stats diverged:\n bare %+v\n live %+v", bareStats, liveStats)
	}
	snap := reg.Snapshot()
	if got := snap.Total("p2plab_bt_downloads_completed_total"); got != 5 {
		t.Errorf("live registry counted %g completed downloads, want 5", got)
	}
	if got := snap.Total("p2plab_net_messages_delivered_total"); got != float64(liveStats.MessagesDelivered) {
		t.Errorf("live registry counted %g delivered messages, want %d", got, liveStats.MessagesDelivered)
	}
}
