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

// TestObsNeutralOnRawNetwork is the raw-network half of the
// observability neutrality property. A network built without
// scenario.Run and without Config.Obs carries a private registry that
// the swarm's clients count into; a swarm on it must trace
// byte-identically and end with equal NetworkStats to the same swarm
// on a network handed a registry that a sampler snapshots every 10 s.
func TestObsNeutralOnRawNetwork(t *testing.T) {
	run := func(reg *obs.Registry, sample time.Duration) ([32]byte, vnet.NetworkStats, *obs.Registry) {
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
		samples := 0
		defer obs.StartSampler(k, net.Obs(), sample, func(sim.Time, *obs.Snapshot) { samples++ }).Stop()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if sample > 0 && samples == 0 {
			t.Error("the sampler never fired")
		}
		if lg.Len() == 0 {
			t.Fatal("nothing traced")
		}
		h := sha256.New()
		if err := lg.Render(h); err != nil {
			t.Fatal(err)
		}
		return [32]byte(h.Sum(nil)), net.Stats(), net.Obs()
	}
	ownTrace, ownStats, own := run(nil, 0)
	reg := obs.NewRegistry()
	sampledTrace, sampledStats, got := run(reg, 10*time.Second)
	if got != reg {
		t.Error("the network did not keep the registry its Config named")
	}
	if ownTrace != sampledTrace {
		t.Errorf("trace diverged with a sampled registry: %x vs %x", ownTrace[:8], sampledTrace[:8])
	}
	if ownStats != sampledStats {
		t.Errorf("network stats diverged:\n own %+v\n sampled %+v", ownStats, sampledStats)
	}
	for name, r := range map[string]*obs.Registry{"private": own, "sampled": reg} {
		snap := r.Snapshot()
		if got := snap.Total("p2plab_bt_downloads_completed_total"); got != 5 {
			t.Errorf("%s registry counted %g completed downloads, want 5", name, got)
		}
		if got := snap.Total("p2plab_net_messages_delivered_total"); got != float64(ownStats.MessagesDelivered) {
			t.Errorf("%s registry counted %g delivered messages, want %d", name, got, ownStats.MessagesDelivered)
		}
	}
}
