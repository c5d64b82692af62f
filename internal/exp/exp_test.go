package exp

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestFig1FlatBand(t *testing.T) {
	series := Fig1([]int{1, 100, 1000}, 1)
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3 schedulers", len(series))
	}
	for _, s := range series {
		if s.Len() != 3 {
			t.Fatalf("%s: %d points", s.Name, s.Len())
		}
		if s.MinY() < 1.64 || s.MaxY() > 1.70 {
			t.Errorf("%s: outside the paper's band: [%v, %v]", s.Name, s.MinY(), s.MaxY())
		}
		if s.Points[0].Y < s.Points[2].Y {
			t.Errorf("%s: per-process time should not increase with N", s.Name)
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	series := Fig2([]int{10, 30, 50}, 1)
	byName := map[string][]float64{}
	for _, s := range series {
		var ys []float64
		for _, p := range s.Points {
			ys = append(ys, p.Y)
		}
		byName[s.Name] = ys
	}
	for _, bsd := range []string{"4BSD scheduler", "ULE scheduler"} {
		ys := byName[bsd]
		if ys[2] < 5 {
			t.Errorf("%s at N=50 = %.2fs, want thrashing (>5s)", bsd, ys[2])
		}
		if ys[0] > 2 {
			t.Errorf("%s at N=10 = %.2fs, want ≈1.25s", bsd, ys[0])
		}
	}
	lin := byName["Linux 2.6"]
	if lin[2] > 4 {
		t.Errorf("Linux at N=50 = %.2fs, want bounded", lin[2])
	}
}

func TestFig3SpreadOrdering(t *testing.T) {
	series := Fig3(100, 1)
	spread := map[string]float64{}
	for _, s := range series {
		spread[s.Name] = s.Points[s.Len()-1].X - s.Points[0].X
	}
	if spread["ULE scheduler"] < 4*spread["4BSD scheduler"] {
		t.Errorf("ULE spread %.1fs should dwarf 4BSD %.1fs",
			spread["ULE scheduler"], spread["4BSD scheduler"])
	}
	for _, s := range series {
		// All CDFs live around the paper's x-window (210..290 s);
		// allow some slack on the fast edge.
		if s.Points[0].X < 180 || s.Points[s.Len()-1].X > 300 {
			t.Errorf("%s CDF range [%.0f, %.0f] outside the paper's window",
				s.Name, s.Points[0].X, s.Points[s.Len()-1].X)
		}
	}
	// ULE's unfairness shows as a tail past the fair completion point
	// (100 × 5 s / 2 CPUs = 250 s) while 4BSD stays tight around it.
	for _, s := range series {
		last := s.Points[s.Len()-1].X
		if s.Name == "ULE scheduler" && last < 255 {
			t.Errorf("ULE slowest finisher at %.0fs, want a tail past 255s", last)
		}
		if s.Name == "4BSD scheduler" && (last < 245 || last > 260) {
			t.Errorf("4BSD slowest finisher at %.0fs, want ≈250s", last)
		}
	}
}

func TestBindOverheadMatchesPaper(t *testing.T) {
	res, err := BindOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plain != 10220*time.Nanosecond {
		t.Errorf("plain = %v, want 10.22µs", res.Plain)
	}
	if res.Intercepted != 10790*time.Nanosecond {
		t.Errorf("intercepted = %v, want 10.79µs", res.Intercepted)
	}
	if res.Overhead() != 570*time.Nanosecond {
		t.Errorf("overhead = %v, want 570ns", res.Overhead())
	}
}

func TestFig6Linear(t *testing.T) {
	points, err := Fig6([]int{0, 10000, 20000}, 4, 1, netem.ClassifierLinear)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	base := points[0].Stats.Avg
	d1 := points[1].Stats.Avg - base
	d2 := points[2].Stats.Avg - base
	// Two traversals of the padded table per RTT at ~48ns/rule:
	// +10000 rules ⇒ ≈0.96ms.
	if d1 < 800*time.Microsecond || d1 > 1200*time.Microsecond {
		t.Errorf("slope at 10k rules = %v, want ≈0.96ms", d1)
	}
	// Linearity: doubling rules doubles the delta (±15%).
	ratio := float64(d2) / float64(d1)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("linearity ratio = %.2f, want ≈2", ratio)
	}
}

func TestFig6At50kMatchesPaperMagnitude(t *testing.T) {
	points, err := Fig6([]int{50000}, 3, 1, netem.ClassifierLinear)
	if err != nil {
		t.Fatal(err)
	}
	rtt := points[0].Stats.Avg
	// The paper measures ≈5 ms at 50000 rules.
	if rtt < 4*time.Millisecond || rtt > 6*time.Millisecond {
		t.Errorf("RTT at 50k rules = %v, want ≈5ms", rtt)
	}
}

func TestFig6IndexedFlat(t *testing.T) {
	series := Fig6Indexed([]int{0, 10000, 50000})
	lin, idx := series[0], series[1]
	if lin.Points[2].Y < 50000 {
		t.Errorf("linear visited %v at 50k rules, want ≥50000", lin.Points[2].Y)
	}
	if idx.Points[2].Y > 10 {
		t.Errorf("indexed visited %v at 50k rules, want O(1)", idx.Points[2].Y)
	}
}

func TestFig7WorkedExample(t *testing.T) {
	res, err := Fig7(14, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 2750 {
		t.Fatalf("hosts = %d, want 2750", res.Hosts)
	}
	// Paper: 853 ms measured, 850 ms model, ~3 ms overhead.
	if res.RTT < 850*time.Millisecond || res.RTT > 860*time.Millisecond {
		t.Errorf("RTT = %v, want ≈853ms", res.RTT)
	}
	if res.Overhead < 0 {
		t.Errorf("overhead = %v, must be nonnegative", res.Overhead)
	}
}

// smallSwarm returns a fast, scaled-down Fig 8 configuration.
func smallSwarm(clients int) scenario.Spec {
	sp := Fig8Spec()
	sp.Workload.Seeders = 2
	sp.Groups[0].Nodes = 2 + clients
	sp.Workload.FileSize = 2 * 1024 * 1024
	sp.Workload.StartInterval = scenario.Duration(2 * time.Second)
	sp.Horizon = scenario.Duration(2 * time.Hour)
	return sp
}

// runSwarm runs a swarm spec that must complete.
func runSwarm(t *testing.T, sp scenario.Spec) *scenario.Result {
	t.Helper()
	res, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != res.Total {
		t.Fatalf("swarm incomplete: %d/%d, completions %v", res.Done, res.Total, res.Completions)
	}
	return res
}

func TestRunSwarmCompletes(t *testing.T) {
	res := runSwarm(t, smallSwarm(16))
	if len(res.Completions) != 16 || len(res.Progress) != 16 {
		t.Fatalf("completions = %d, trajectories = %d, want 16", len(res.Completions), len(res.Progress))
	}
	for i, c := range res.Completions {
		if c == 0 {
			t.Errorf("client %d unfinished", i)
		}
	}
}

func TestRunSwarmWithFolding(t *testing.T) {
	sp := smallSwarm(16)
	sp.Folding = 8
	folded := runSwarm(t, sp)
	// The cluster layer is really there: every message between the 3
	// machines pays NIC, CPU and firewall-scan time the bare topology
	// does not charge.
	if bare := runSwarm(t, smallSwarm(16)); folded.EndedAt <= bare.EndedAt {
		t.Errorf("folded run ended at %v, want later than the unfolded %v", folded.EndedAt, bare.EndedAt)
	}
}

func TestFig9FoldingInvariance(t *testing.T) {
	// The paper's folding result: deploying the same swarm at different
	// folding ratios produces nearly identical data-received curves.
	// BitTorrent dynamics are chaotic per client (a different optimistic
	// unchoke shifts individual completions), so the comparison is on
	// the aggregate cumulative curve, like the paper's Fig 9.
	series, results, err := Fig9(smallSwarm(32), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(results) != 2 {
		t.Fatalf("series = %d, results = %d", len(series), len(results))
	}
	totalWant := float64(32) * 2 // 32 clients × 2 MB, in MB
	for _, s := range series {
		if got := s.LastY(); got < totalWant*0.99 || got > totalWant*1.01 {
			t.Errorf("%s: final total = %.1f MB, want %.1f", s.Name, got, totalWant)
		}
	}
	// Compare the cumulative curves at the quartiles of the unfolded
	// run: the folded run must deliver within 10% of the same data.
	unfolded, folded := series[0], series[1]
	end := unfolded.Points[unfolded.Len()-1].X
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		x := end * frac
		a, b := unfolded.At(x), folded.At(x)
		if a == 0 {
			continue
		}
		if diff := (b - a) / totalWant; diff < -0.10 || diff > 0.10 {
			t.Errorf("at t=%.0fs: unfolded %.1f MB vs folded %.1f MB (%.0f%% of total apart)",
				x, a, b, 100*diff)
		}
	}
}

func lastCompletion(cs []sim.Time) sim.Time {
	var last sim.Time
	for _, c := range cs {
		if c > last {
			last = c
		}
	}
	return last
}

func TestProgressAndCompletionSeries(t *testing.T) {
	res := runSwarm(t, smallSwarm(16))
	fileSize := res.Spec.Workload.FileSize
	ps := ProgressSeries("c0", res.Progress[0], fileSize)
	if ps.LastY() != 100 {
		t.Fatalf("final percent = %v", ps.LastY())
	}
	cs := CompletionSeries(res.Completions)
	if cs.LastY() != 16 {
		t.Fatalf("final completions = %v, want 16", cs.LastY())
	}
	// The merged piece stream: one point per piece per client, in time
	// order, summing to clients × file size.
	ts := TotalReceivedSeries("total", res.Progress)
	pieces := int(fileSize / bt.DefaultPieceLength)
	if ts.Len() != 16*pieces {
		t.Errorf("piece stream has %d events, want %d", ts.Len(), 16*pieces)
	}
	for i := 1; i < ts.Len(); i++ {
		if ts.Points[i].X < ts.Points[i-1].X {
			t.Fatalf("piece stream goes back in time at %d: %v after %v", i, ts.Points[i].X, ts.Points[i-1].X)
		}
	}
	if ts.LastY() != 32 {
		t.Errorf("total received = %v MB, want 32", ts.LastY())
	}
}

// TestTotalReceivedMergeTies: pieces completed at the same instant
// merge in client order, whatever the clients' later timing.
func TestTotalReceivedMergeTies(t *testing.T) {
	const mb = 1 << 20
	s := func(sec int) sim.Time { return sim.Time(time.Duration(sec) * time.Second) }
	ts := TotalReceivedSeries("total", [][]bt.Progress{
		{{At: s(2), Bytes: 1 * mb}, {At: s(5), Bytes: 2 * mb}},
		{{At: s(1), Bytes: 4 * mb}, {At: s(2), Bytes: 6 * mb}},
	})
	want := []metrics.Point{{X: 1, Y: 4}, {X: 2, Y: 5}, {X: 2, Y: 7}, {X: 5, Y: 8}}
	if !reflect.DeepEqual(ts.Points, want) {
		t.Errorf("merged stream = %v, want %v", ts.Points, want)
	}
}

func TestScaleParams(t *testing.T) {
	sp := ScaleSpec(Fig10Spec(), 100)
	if got := sp.Groups[0].Nodes - sp.Workload.Seeders; got != 57 {
		t.Fatalf("clients = %d", got)
	}
	if sp.Workload.FileSize != 512*1024 {
		t.Fatalf("file size = %d", sp.Workload.FileSize)
	}
	if sp.Folding != 32 || sp.Workload.Seeders != 4 {
		t.Fatalf("folding %d, seeders %d not preserved", sp.Folding, sp.Workload.Seeders)
	}
	if full := Fig10Spec(); full.Groups[0].Nodes != 5758 {
		t.Fatalf("scaling mutated the spec it was given a copy of: %d nodes", full.Groups[0].Nodes)
	}
}

func TestFig8ParamsMatchPaper(t *testing.T) {
	sp := Fig8Spec()
	w := sp.Workload
	if sp.TotalNodes() != 160+4 || w.Seeders != 4 || w.FileSize != 16*1024*1024 ||
		w.StartInterval.D() != 10*time.Second || sp.Groups[0].Class != topo.DSL.Name || sp.Folding != 0 {
		t.Fatalf("Fig8 spec drifted: %+v", sp)
	}
	sp10 := Fig10Spec()
	// 5758 nodes at 32 per machine are the paper's 180 physical nodes.
	if sp10.TotalNodes() != 5754+4 || sp10.Folding != 32 || (sp10.TotalNodes()+31)/32 != 180 ||
		sp10.Workload.StartInterval.D() != 250*time.Millisecond {
		t.Fatalf("Fig10 spec drifted: %+v", sp10)
	}
}

// TestFig10SpecPlacesAtEveryScale: the machine count is derived from
// the spec's total nodes, so every scaled Fig 10 assembles and places
// (a 1 ns horizon ends the run right after). Sizing it from the
// clients alone left no room for the seeders at 18 of these factors.
func TestFig10SpecPlacesAtEveryScale(t *testing.T) {
	for factor := 1; factor <= 64; factor++ {
		sp := ScaleSpec(Fig10Spec(), factor)
		sp.Horizon = 1
		if _, err := scenario.Run(&sp, scenario.Options{}); err != nil {
			t.Errorf("scale %d: %v", factor, err)
		}
	}
}
