package exp

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestFig1FlatBand runs Fig 1 as `p2plab -fig 1` does: a sched grid
// over the process counts, one curve per scheduler read from the cells.
func TestFig1FlatBand(t *testing.T) {
	snaps := sweepSnapshots(t, Grid{Experiment: ExpSched, Peers: []int{1, 100, 1000}, Seeds: []int64{1}})
	if len(sched.Kinds) != 3 {
		t.Fatalf("schedulers = %d, want 3", len(sched.Kinds))
	}
	if len(snaps) != 3 {
		t.Fatalf("cells = %d, want 3", len(snaps))
	}
	for _, kind := range sched.Kinds {
		key := "exec-avg-s/" + kind.String()
		var ys []float64
		for _, s := range snaps {
			y, ok := s.Values[key]
			if !ok {
				t.Fatalf("cell carries no %s: %v", key, s.Values)
			}
			ys = append(ys, y)
		}
		if slices.Min(ys) < 1.64 || slices.Max(ys) > 1.70 {
			t.Errorf("%s: outside the paper's band: [%v, %v]", kind, slices.Min(ys), slices.Max(ys))
		}
		if ys[0] < ys[2] {
			t.Errorf("%s: per-process time should not increase with N", kind)
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

// TestFig6Linear runs Fig 6 as `p2plab -fig 6` does, on ping cells:
// each round trip scans the padded table twice, so the RTT grows by
// exactly 2 × rules × the per-rule cost over the empty-table base.
func TestFig6Linear(t *testing.T) {
	base := rttAvg(pingCell(t, 0, netem.ClassifierLinear))
	lin10 := rttAvg(pingCell(t, 10000, netem.ClassifierLinear))
	lin20 := rttAvg(pingCell(t, 20000, netem.ClassifierLinear))
	// Two traversals × 10000 rules × 48 ns = 0.96 ms per step.
	if d := lin10 - base; d != 2*10000*netem.DefaultPerRuleCost {
		t.Errorf("slope at 10k = %v, want %v", d, 2*10000*netem.DefaultPerRuleCost)
	}
	if d1, d2 := lin10-base, lin20-base; d2 != 2*d1 {
		t.Errorf("not linear: deltas %v then %v", d1, d2)
	}
}

func TestFig6At50kMatchesPaperMagnitude(t *testing.T) {
	rtt := rttAvg(pingCell(t, 50000, netem.ClassifierLinear))
	// The paper measures ≈5 ms at 50000 rules.
	if rtt < 4*time.Millisecond || rtt > 6*time.Millisecond {
		t.Errorf("RTT at 50k rules = %v, want ≈5ms", rtt)
	}
}

// TestFig6IndexedFlat: the indexed classifier visits none of the
// filler rules a linear scan walks through, so its curve stays at the
// empty-table base.
func TestFig6IndexedFlat(t *testing.T) {
	base := rttAvg(pingCell(t, 0, netem.ClassifierLinear))
	lin := pingCell(t, 50000, netem.ClassifierLinear)
	idx := pingCell(t, 50000, netem.ClassifierIndexed)
	perEval := func(s *metrics.Snapshot) uint64 { return s.Counters["fw-visited"] / s.Counters["fw-evals"] }
	if v := perEval(lin); v < 50000 {
		t.Errorf("linear visited %d rules per scan at 50k rules, want ≥50000", v)
	}
	if v := perEval(idx); v != 0 {
		t.Errorf("indexed visited %d filler rules per scan, want 0", v)
	}
	if got := rttAvg(idx); got != base {
		t.Errorf("indexed RTT at 50k rules = %v, want flat base %v", got, base)
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
	// the aggregate cumulative curve, like the paper's Fig 9. One spec,
	// run at each folding, as `p2plab -fig 9` runs it.
	var series []*metrics.Series
	for _, folding := range []int{1, 8} {
		sp := smallSwarm(32)
		sp.Folding = folding
		res, err := scenario.Run(&sp, scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, TotalReceivedSeries(fmt.Sprintf("folding %d", folding), res.Progress))
	}
	totalWant := float64(32) * 2 // 32 clients × 2 MB, in MB
	for _, s := range series {
		if got := s.Points[len(s.Points)-1].Y; got < totalWant*0.99 || got > totalWant*1.01 {
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
	if ps.Points[len(ps.Points)-1].Y != 100 {
		t.Fatalf("final percent = %v", ps.Points[len(ps.Points)-1].Y)
	}
	cs := CompletionSeries(res.Completions)
	if cs.Points[len(cs.Points)-1].Y != 16 {
		t.Fatalf("final completions = %v, want 16", cs.Points[len(cs.Points)-1].Y)
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
	if ts.Points[len(ts.Points)-1].Y != 32 {
		t.Errorf("total received = %v MB, want 32", ts.Points[len(ts.Points)-1].Y)
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

// BenchmarkSwarmScale runs a horizon-bounded megaswarm and reports
// peers/sec (emulated peers per wall-clock second — the paper's
// headline "how many clients fit on this hardware" number) and
// bytes/peer (verified payload per peer inside the horizon, a sanity
// check that the swarm actually transfers instead of idling).
func BenchmarkSwarmScale(b *testing.B) {
	// The swarm kernel is strictly serial and its steady-state live heap
	// is small next to its allocation rate, so the default GOGC=100
	// spends a measurable slice of the run re-marking the same client
	// state; examples/megaswarm applies the same setting (README
	// "Megaswarm").
	old := debug.SetGCPercent(400)
	defer debug.SetGCPercent(old)
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			sp := MegaswarmSpec(n)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, err := scenario.Run(&sp, scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start).Seconds()
				var bytes int64
				for _, prog := range res.Progress {
					if len(prog) > 0 {
						bytes += prog[len(prog)-1].Bytes
					}
				}
				if bytes == 0 {
					b.Fatal("swarm moved no data")
				}
				b.ReportMetric(float64(n)/elapsed, "peers/sec")
				b.ReportMetric(float64(bytes)/float64(n), "bytes/peer")
			}
		})
	}
}
