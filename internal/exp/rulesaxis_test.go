package exp

import (
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

// pingCell runs the one ping cell at rules × classifier and returns its
// snapshot.
func pingCell(t *testing.T, rules int, cf netem.Classifier) *metrics.Snapshot {
	t.Helper()
	g := Grid{Experiment: ExpPing, Rules: []int{rules}}
	if rules > 0 {
		g.Classifiers = []netem.Classifier{cf}
	}
	res, err := runOne(g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Snapshot
}

// rttAvg is a ping snapshot's average RTT, back at nanosecond grain.
func rttAvg(snap *metrics.Snapshot) time.Duration {
	return time.Duration(math.Round(snap.Values["rtt-avg-ms"] * 1e6))
}

// TestRunPingFig6Shape: the network-level Fig 6 measurement, ping
// cells — linear RTT growth under the linear classifier, a near-flat
// curve under the indexed one, identical base.
func TestRunPingFig6Shape(t *testing.T) {
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
	idx := pingCell(t, 20000, netem.ClassifierIndexed)
	if got := rttAvg(idx); got != base {
		t.Errorf("indexed RTT at 20k rules = %v, want flat base %v", got, base)
	}
	if v := idx.Counters["fw-visited"]; v != 0 {
		t.Errorf("indexed visited %d filler rules, want 0", v)
	}
}

// TestGridRulesAxis: expansion, defaults and rejection rules for the
// rules and classifier axes.
func TestGridRulesAxis(t *testing.T) {
	g := Grid{
		Experiment:  ExpPing,
		Rules:       []int{0, 1000},
		Classifiers: []netem.Classifier{netem.ClassifierLinear, netem.ClassifierIndexed},
		Seeds:       []int64{1, 2},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// rules=0 collapses to one baseline cell (an empty table behaves
	// identically under every classifier): (1 + 2) × 2 seeds.
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want (1 baseline + 2 classifiers at 1000 rules) × 2 seeds = 6", len(cells))
	}
	zeroCells := 0
	for _, c := range cells {
		if c.Rules == 0 {
			zeroCells++
		}
	}
	if zeroCells != 2 {
		t.Fatalf("rules=0 cells = %d, want 2 (one per seed, not per classifier)", zeroCells)
	}

	if _, err := (Grid{Experiment: ExpDHT, Rules: []int{0, 100}}).Cells(); err == nil {
		t.Error("dht accepted the rules axis")
	}
	if _, err := (Grid{Experiment: ExpDHT, Rules: []int{100}}).Cells(); err == nil {
		t.Error("dht accepted a single-valued rules axis (would silently run without a firewall)")
	}
	if _, err := (Grid{Experiment: ExpSched, Classifiers: []netem.Classifier{netem.ClassifierIndexed}}).Cells(); err == nil {
		t.Error("sched accepted a single-valued classifier axis")
	}
	if _, err := (Grid{Experiment: ExpGossip, Classifiers: []netem.Classifier{netem.ClassifierLinear, netem.ClassifierIndexed}}).Cells(); err == nil {
		t.Error("gossip accepted the classifier axis")
	}
	if _, err := (Grid{Experiment: ExpPing, Rules: []int{100, 100}}).Cells(); err == nil {
		t.Error("duplicate rules axis accepted")
	}
	if _, err := (Grid{Experiment: ExpPing, Rules: []int{-1}}).Cells(); err == nil {
		t.Error("negative rule count accepted")
	}
	if _, err := (Grid{Experiment: ExpPing, Peers: []int{2, 4}}).Cells(); err == nil {
		t.Error("ping accepted the peers axis")
	}
}

// TestSweepPingCells runs a small ping sweep end-to-end and checks the
// labels and the flat-vs-linear artifact in the merged snapshots.
func TestSweepPingCells(t *testing.T) {
	g := Grid{
		Experiment:  ExpPing,
		Rules:       []int{0, 5000},
		Classifiers: []netem.Classifier{netem.ClassifierLinear, netem.ClassifierIndexed},
	}
	res, err := RunSweep(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed cells: %v", res.Errs())
	}
	byKey := map[string]float64{}
	for _, c := range res.Cells {
		byKey[c.Snapshot.Labels["rules"]+"/"+c.Snapshot.Labels["classifier"]] = c.Snapshot.Values["rtt-avg-ms"]
	}
	// rules=0 ran once, as the linear baseline.
	if byKey["5000/linear"] <= byKey["0/linear"] {
		t.Errorf("linear classifier: 5000 rules (%g ms) not slower than 0 (%g ms)",
			byKey["5000/linear"], byKey["0/linear"])
	}
	if byKey["5000/indexed"] != byKey["0/linear"] {
		t.Errorf("indexed classifier: %g ms at 5000 rules, want flat baseline %g",
			byKey["5000/indexed"], byKey["0/linear"])
	}
}

// TestSwarmRulesSlowCompletion: a firewalled swarm pays the scan on
// every message — with a large linear table the download measurably
// slows; the indexed classifier removes the overhead.
func TestSwarmRulesSlowCompletion(t *testing.T) {
	res, err := RunSweep(Grid{
		Experiment:  ExpSwarm,
		Peers:       []int{4},
		Classes:     []topo.LinkClass{topo.LAN}, // firewall cost, not serialization, dominates
		Rules:       []int{0, 50000},
		Classifiers: []netem.Classifier{netem.ClassifierLinear, netem.ClassifierIndexed},
		FileSize:    256 << 10,
		Horizon:     time.Hour,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatal(res.Errs())
	}
	ended := map[string]float64{}
	for _, c := range res.Cells {
		if c.Snapshot.Values["done-fraction"] != 1 {
			t.Fatalf("%s: swarm incomplete", c.Cell)
		}
		ended[c.Snapshot.Labels["rules"]+"/"+c.Snapshot.Labels["classifier"]] = c.Snapshot.Values["ended-s"]
	}
	base, heavy, light := ended["0/"], ended["50000/linear"], ended["50000/indexed"]
	if heavy <= base {
		t.Errorf("50k-rule linear swarm ended at %vs, want later than %vs", heavy, base)
	}
	if light >= heavy {
		t.Errorf("indexed swarm ended at %vs, want earlier than linear %vs", light, heavy)
	}
	if v := res.Cells[1].Snapshot.Counters["fw-visited"]; v == 0 {
		t.Error("linear 50k-rule cell visited no rules: filler_rules did not reach the firewall")
	}
}

// TestRunSwarmRulesSlowCompletion is the same property on a folded
// figure spec (`p2plab -fig 10 -rules`): the network firewall's scan
// cost adds to what the cluster's per-machine tables already charge.
func TestRunSwarmRulesSlowCompletion(t *testing.T) {
	run := func(rules int, classifier string) sim.Time {
		return runSwarm(t, scenario.Spec{
			Name:        "folded-rules",
			Folding:     2,
			FillerRules: rules,
			Classifier:  classifier,
			Groups:      []scenario.GroupSpec{{Name: "peers", Class: topo.LAN.Name, Nodes: 1 + 4}},
			Workload:    scenario.WorkloadSpec{Kind: scenario.WorkloadSwarm, Seeders: 1, FileSize: 256 << 10},
		}).EndedAt
	}
	base := run(0, "")
	heavy := run(50000, "linear")
	light := run(50000, "indexed")
	if heavy <= base {
		t.Errorf("50k-rule linear swarm ended at %v, want later than %v", heavy, base)
	}
	if light >= heavy {
		t.Errorf("indexed swarm ended at %v, want earlier than linear %v", light, heavy)
	}
}
