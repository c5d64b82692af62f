package exp

import (
	"math"
	"testing"

	"repro/internal/topo"
)

// The Chord extension experiments as `p2plab -fig dht` runs them: dht
// grids, read from the cell snapshots.

func TestDHTScalingLogarithmic(t *testing.T) {
	sizes := []int{8, 32}
	snaps := sweepSnapshots(t, Grid{Experiment: ExpDHT, Peers: sizes,
		Classes: []topo.LinkClass{topo.LAN}, Seeds: []int64{1}, Lookups: 100})
	if len(snaps) != 2 {
		t.Fatalf("cells = %d", len(snaps))
	}
	for i, s := range snaps {
		// Chord expectation: ≈ ½·log2(N) hops, generously bounded.
		n, hops := sizes[i], s.Values["avg-hops"]
		bound := math.Log2(float64(n)) + 1
		if hops > bound {
			t.Errorf("N=%d: avg hops %.2f exceeds log2(N)+1 = %.1f", n, hops, bound)
		}
		if s.Values["avg-latency-ms"] <= 0 {
			t.Errorf("N=%d: no latency recorded", n)
		}
	}
	// Hops must grow with ring size.
	if snaps[1].Values["avg-hops"] <= snaps[0].Values["avg-hops"] {
		t.Errorf("hops did not grow: N=8 → %.2f, N=32 → %.2f",
			snaps[0].Values["avg-hops"], snaps[1].Values["avg-hops"])
	}
}

func TestDHTLocalityOrdering(t *testing.T) {
	snaps := sweepSnapshots(t, Grid{Experiment: ExpDHT, Peers: []int{32},
		Classes: []topo.LinkClass{topo.LAN, topo.Campus, topo.DSL, topo.Modem}, Seeds: []int64{1}, Lookups: 200})
	lan, dsl, modem := snaps[0], snaps[2], snaps[3]
	// Identical overlay; latency must be ordered by access link.
	lanMs, dslMs, modemMs := lan.Values["avg-latency-ms"], dsl.Values["avg-latency-ms"], modem.Values["avg-latency-ms"]
	if !(lanMs < dslMs && dslMs < modemMs) {
		t.Fatalf("latency ordering broken: lan=%vms dsl=%vms modem=%vms", lanMs, dslMs, modemMs)
	}
	// And hop counts must be (statistically) similar: same overlay.
	if math.Abs(lan.Values["avg-hops"]-modem.Values["avg-hops"]) > 1.5 {
		t.Fatalf("hops diverged across links: lan=%.2f modem=%.2f", lan.Values["avg-hops"], modem.Values["avg-hops"])
	}
}
