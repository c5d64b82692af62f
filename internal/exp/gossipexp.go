package exp

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/topo"
)

// GossipPoint is one measurement of extension experiment E6: epidemic
// dissemination time over the emulated network.
type GossipPoint struct {
	Nodes    int
	Fanout   int
	Coverage float64       // fraction of nodes reached
	T50      time.Duration // time to 50% coverage
	T100     time.Duration // time to full observed coverage
	Pushes   uint64
}

// GossipSpread runs one dissemination experiment: n nodes on the given
// class, one update published at t=1s, measured until full coverage or
// five minutes — one gossip sweep cell.
func GossipSpread(n, fanout int, class topo.LinkClass, seed int64) (GossipPoint, error) {
	res, err := runOne(Grid{Experiment: ExpGossip, Peers: []int{n}, Classes: []topo.LinkClass{class},
		Seeds: []int64{seed}, Fanout: fanout})
	if err != nil {
		return GossipPoint{}, err
	}
	return GossipPoint{
		Nodes:    n,
		Fanout:   fanout,
		Coverage: res.Coverage,
		T50:      res.T50,
		T100:     res.T100,
		Pushes:   res.Snapshot.Counters["pushes"],
	}, nil
}

// GossipFanoutSweep measures dissemination time against fanout for a
// fixed population (E6): higher fanout trades messages for speed.
func GossipFanoutSweep(n int, fanouts []int, seed int64) ([]GossipPoint, error) {
	if fanouts == nil {
		fanouts = []int{1, 2, 3, 5, 8}
	}
	var out []GossipPoint
	for _, f := range fanouts {
		pt, err := GossipSpread(n, f, topo.LAN, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// GossipSweepSeries converts sweep points into T100-vs-fanout and
// pushes-vs-fanout series.
func GossipSweepSeries(points []GossipPoint) []*metrics.Series {
	t100 := &metrics.Series{Name: "time-to-full-coverage-s"}
	cost := &metrics.Series{Name: "push-messages"}
	for _, pt := range points {
		t100.Add(float64(pt.Fanout), pt.T100.Seconds())
		cost.Add(float64(pt.Fanout), float64(pt.Pushes))
	}
	return []*metrics.Series{t100, cost}
}

// gossipString formats a point for command output.
func (pt GossipPoint) String() string {
	return fmt.Sprintf("n=%d fanout=%d coverage=%.0f%% t50=%v t100=%v pushes=%d",
		pt.Nodes, pt.Fanout, 100*pt.Coverage, pt.T50, pt.T100, pt.Pushes)
}
