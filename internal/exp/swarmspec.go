// Package exp contains one driver per table and figure of the paper's
// evaluation. Each driver returns typed series ready for rendering
// (metrics.WriteDat) and for assertions in tests and benchmarks. The
// scheduler, ping and topology figures (1–3, 6, 7) build their
// experiment from the substrate packages; the swarm figures (8–11),
// the extension experiments and the sweep engine build nothing
// themselves: each is a scenario.Spec (Fig8Spec, Fig10Spec, Cell.Spec)
// run through scenario.Run.
//
// The index figure → driver lives in DESIGN.md; paper-vs-measured
// numbers live in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bt"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Fig8Spec returns the paper's first BitTorrent experiment: "the
// download of a 16 MB file by 160 clients ... provided by 4 seeders.
// All nodes have a network connection with a download rate of 2 mbps,
// an upload rate of 128 kbps, and a latency of 30 ms ... clients are
// started with a 10s interval." One group addressed from 10.0.0.1 up,
// seeders first.
func Fig8Spec() scenario.Spec {
	return scenario.Spec{
		Name:    "fig8",
		Seed:    1,
		Horizon: scenario.Duration(4 * time.Hour),
		Groups: []scenario.GroupSpec{{
			Name: "peers", Class: topo.DSL.Name, Nodes: 4 + 160, Prefix: "10.0.0.0/16",
		}},
		Workload: scenario.WorkloadSpec{
			Kind:          scenario.WorkloadSwarm,
			FileSize:      16 << 20,
			Seeders:       4,
			StartInterval: scenario.Duration(10 * time.Second),
		},
	}
}

// Fig10Spec returns the scalability experiment: "5760 virtual nodes
// (5754 clients, 4 seeders, one tracker) hosted on 180 physical nodes
// (32 virtual nodes per physical node). The clients are started every
// 0.25s."
func Fig10Spec() scenario.Spec {
	sp := Fig8Spec()
	sp.Name = "fig10"
	sp.Horizon = scenario.Duration(6 * time.Hour)
	sp.Groups[0].Nodes = 4 + 5754
	sp.Workload.StartInterval = scenario.Duration(250 * time.Millisecond)
	sp.Folding = 32
	return sp
}

// MegaswarmSpec returns the swarm-scale stress workload behind
// examples/megaswarm and BenchmarkSwarmScale: a flash crowd of peers
// campus-link leechers (one seeder per 200, at least 4) joining an
// 8 MiB sparse torrent a millisecond apart, horizon-bounded so a run
// measures the join + transfer machinery rather than the virtual tail.
// A spec group is bounded (scenario.MaxNodesPerGroup); same-class
// groups are only address labels, so the population is split across as
// many as it needs, seeders at the head of the first.
func MegaswarmSpec(peers int) scenario.Spec {
	seeders := max(4, peers/200)
	sp := scenario.Spec{
		Name:    "megaswarm",
		Seed:    1,
		Horizon: scenario.Duration(2 * time.Minute),
		Workload: scenario.WorkloadSpec{
			Kind:          scenario.WorkloadSwarm,
			FileSize:      8 << 20,
			Seeders:       seeders,
			StartInterval: scenario.Duration(time.Millisecond),
		},
	}
	for left := seeders + peers; left > 0; {
		n := min(left, scenario.MaxNodesPerGroup)
		sp.Groups = append(sp.Groups, scenario.GroupSpec{
			Name: fmt.Sprintf("peers%d", len(sp.Groups)), Class: topo.Campus.Name, Nodes: n,
		})
		left -= n
	}
	return sp
}

// ScaleSpec shrinks a one-group swarm spec by an integer factor
// (clients, file size) while preserving seeders, link class, folding
// and intervals — used by tests, -short benchmarks and `p2plab -scale`.
func ScaleSpec(sp scenario.Spec, factor int) scenario.Spec {
	if factor <= 1 {
		return sp
	}
	w := &sp.Workload
	clients := max(2, (sp.Groups[0].Nodes-w.Seeders)/factor)
	sp.Groups = []scenario.GroupSpec{sp.Groups[0]} // the caller keeps its own
	sp.Groups[0].Nodes = w.Seeders + clients
	w.FileSize = max(512*1024, w.FileSize/int64(factor))
	return sp
}

// ProgressSeries converts a client trajectory into a percent-complete
// series — one curve of Fig 8 / Fig 10.
func ProgressSeries(name string, prog []bt.Progress, total int64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for _, pt := range prog {
		s.Add(pt.At.Seconds(), 100*float64(pt.Bytes)/float64(total))
	}
	return s
}

// CompletionSeries builds "clients having completed the download" over
// time — Fig 11.
func CompletionSeries(completions []sim.Time) *metrics.Series {
	var done []float64
	for _, c := range completions {
		if c > 0 {
			done = append(done, c.Seconds())
		}
	}
	s := metrics.CDF(done)
	s.Name = "completions"
	// Scale F(x) back to absolute counts.
	for i := range s.Points {
		s.Points[i].Y *= float64(len(done))
	}
	return &s
}

// TotalReceivedSeries builds "total amount of data received by the
// nodes" over time, in megabytes — the y-axis of Fig 9. The swarm-wide
// piece stream is the time-merge of the per-client trajectories
// (scenario.Result.Progress); pieces completed at the same instant
// keep client order.
func TotalReceivedSeries(name string, progress [][]bt.Progress) *metrics.Series {
	var pieces []bt.Progress // Bytes: the piece's own size
	for _, prog := range progress {
		var have int64
		for _, pt := range prog {
			pieces = append(pieces, bt.Progress{At: pt.At, Bytes: pt.Bytes - have})
			have = pt.Bytes
		}
	}
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].At < pieces[j].At })
	s := &metrics.Series{Name: name}
	var cum float64
	for _, e := range pieces {
		cum += float64(e.Bytes) / (1 << 20)
		s.Add(e.At.Seconds(), cum)
	}
	return s
}
