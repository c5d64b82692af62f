package exp

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/topo"
)

// The gossip extension experiment as `p2plab -fig gossip` runs it:
// gossip grids, read from the cell snapshots.

// gossipCell runs one gossip cell: n nodes on class at the fanout.
func gossipCell(t *testing.T, n, fanout int, class topo.LinkClass) *metrics.Snapshot {
	t.Helper()
	return sweepSnapshots(t, Grid{Experiment: ExpGossip, Peers: []int{n},
		Classes: []topo.LinkClass{class}, Seeds: []int64{1}, Fanout: fanout})[0]
}

func TestGossipSpreadFullCoverage(t *testing.T) {
	s := gossipCell(t, 32, 3, topo.LAN)
	if s.Values["coverage"] != 1 {
		t.Fatalf("coverage = %.2f, want full", s.Values["coverage"])
	}
	if t50, t100 := s.Values["t50-s"], s.Values["t100-s"]; t50 <= 0 || t100 < t50 {
		t.Fatalf("times inconsistent: t50=%vs t100=%vs", t50, t100)
	}
}

func TestGossipFanoutTradeoff(t *testing.T) {
	lowF, highF := gossipCell(t, 32, 1, topo.LAN), gossipCell(t, 32, 5, topo.LAN)
	if highF.Values["t100-s"] > lowF.Values["t100-s"] {
		t.Errorf("fanout 5 (%vs) should not be slower than fanout 1 (%vs)",
			highF.Values["t100-s"], lowF.Values["t100-s"])
	}
	if highF.Counters["pushes"] <= lowF.Counters["pushes"] {
		t.Errorf("fanout 5 (%d pushes) must cost more messages than fanout 1 (%d)",
			highF.Counters["pushes"], lowF.Counters["pushes"])
	}
	// The figure's two curves read these keys from every cell.
	for _, s := range []*metrics.Snapshot{lowF, highF} {
		if _, ok := s.Values["t100-s"]; !ok {
			t.Fatalf("cell carries no t100-s: %v", s.Values)
		}
		if _, ok := s.Counters["pushes"]; !ok {
			t.Fatalf("cell carries no pushes: %v", s.Counters)
		}
	}
}

func TestGossipSlowLinksSlowCoverage(t *testing.T) {
	snaps := sweepSnapshots(t, Grid{Experiment: ExpGossip, Peers: []int{16},
		Classes: []topo.LinkClass{topo.LAN, topo.DSL}, Seeds: []int64{1}, Fanout: 3})
	lan, dsl := snaps[0], snaps[1]
	if dsl.Values["coverage"] != 1 || lan.Values["coverage"] != 1 {
		t.Fatal("both runs should reach full coverage")
	}
	if dsl.Values["t100-s"] < lan.Values["t100-s"] {
		t.Errorf("DSL (%vs) should not beat LAN (%vs)", dsl.Values["t100-s"], lan.Values["t100-s"])
	}
}
