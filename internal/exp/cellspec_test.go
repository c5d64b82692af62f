package exp

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestCellSpecMatchesParent pins the fabric-free families to the
// values exp's own dht and gossip builders produced before cells
// compiled to scenario specs (commit b1209b2): moving onto the one
// assembler must not move a single digit of either.
func TestCellSpecMatchesParent(t *testing.T) {
	dsl := []topo.LinkClass{topo.DSL}
	dht, err := runOne(Grid{Experiment: ExpDHT, Peers: []int{64}, Classes: dsl, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	v := dht.Snapshot.Values
	if v["avg-hops"] != 3.14 || v["avg-latency-ms"] != ms(825273606*time.Nanosecond) ||
		v["p90-latency-ms"] != ms(1058085914*time.Nanosecond) ||
		dht.Snapshot.Counters["timeouts"] != 3 || dht.Kernel.Events != 379592 {
		t.Errorf("dht cell moved: %.2f hops, %vms avg, %vms p90, %d timeouts, %d kernel events; want 3.14, 825.273606ms, 1.058085914s, 3, 379592",
			v["avg-hops"], v["avg-latency-ms"], v["p90-latency-ms"], dht.Snapshot.Counters["timeouts"], dht.Kernel.Events)
	}
	gos, err := runOne(Grid{Experiment: ExpGossip, Peers: []int{256}, Classes: dsl, Seeds: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	v = gos.Snapshot.Values
	if v["coverage"] != 1 || v["t50-s"] != (4250*time.Millisecond).Seconds() || v["t100-s"] != (7250*time.Millisecond).Seconds() ||
		gos.Snapshot.Counters["pushes"] != 1940 {
		t.Errorf("gossip cell moved: coverage %v, t50 %vs, t100 %vs, %d pushes; want 1, 4.25s, 7.25s, 1940",
			v["coverage"], v["t50-s"], v["t100-s"], gos.Snapshot.Counters["pushes"])
	}
}

// TestFigSpecMatchesParent pins the swarm figures to what exp's own
// swarm builder (deleted after commit 43f8602) measured for the same
// experiments: folded or not, pipe or windowed flow, the one assembler
// dispatches the same events to the same instant.
func TestFigSpecMatchesParent(t *testing.T) {
	fig8by8 := ScaleSpec(Fig8Spec(), 8)
	fig8by8.Folding = 4
	flow := fig8by8
	flow.Model, flow.FlowWindow = "flow", scenario.Duration(250*time.Millisecond)
	for _, c := range []struct {
		name    string
		sp      scenario.Spec
		kernel  sim.Stats
		endedAt time.Duration
	}{
		{"fig8/20", ScaleSpec(Fig8Spec(), 20), sim.Stats{Events: 9973, Switches: 5855, Spawns: 215}, 96485271220},
		{"fig8/8 folding 4", fig8by8, sim.Stats{Events: 107566, Switches: 33512, Spawns: 795}, 280368866988},
		// Re-pinned when a peer turned away at join stopped leaving its
		// bitfield in the picker: {48815, 29191, 827} ended 287.152497322 s
		// before the fix.
		{"fig8/8 folding 4 flow 250ms", flow, sim.Stats{Events: 48063, Switches: 28774, Spawns: 814}, 287214713028},
		{"fig10/32", ScaleSpec(Fig10Spec(), 32), sim.Stats{Events: 527954, Switches: 209249, Spawns: 12085}, 280168961757},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			res := runSwarm(t, c.sp)
			if res.Kernel != c.kernel || time.Duration(res.EndedAt) != c.endedAt {
				t.Errorf("moved: kernel %+v ended %v; want %+v ended %v", res.Kernel, time.Duration(res.EndedAt), c.kernel, c.endedAt)
			}
		})
	}
}

// familyGrids is one small non-default cell per family that compiles
// to a spec, every axis the family reads set off its default.
var familyGrids = []Grid{
	{Experiment: ExpSwarm, Peers: []int{4}, Classes: []topo.LinkClass{topo.FastDSL},
		Models: []netem.ModelKind{netem.ModelFlow}, Windows: []time.Duration{50 * time.Millisecond},
		Rules: []int{100}, Classifiers: []netem.Classifier{netem.ClassifierIndexed},
		Seeds: []int64{3}, FileSize: 512 << 10, Horizon: time.Hour},
	{Experiment: ExpChurn, Peers: []int{6}, Churn: []float64{0.4}, Seeds: []int64{2},
		FileSize: 512 << 10, Horizon: 2 * time.Hour},
	{Experiment: ExpSnapshotSync, Peers: []int{2}, PieceSizes: []int{256 << 10}, ConnCaps: []int{2},
		Rates: []int64{128 << 10}, Seeds: []int64{4}, FileSize: 1 << 20, Horizon: time.Hour},
	{Experiment: ExpDHT, Peers: []int{6}, Classes: []topo.LinkClass{topo.Campus}, Seeds: []int64{5}, Lookups: 12},
	{Experiment: ExpGossip, Peers: []int{12}, Classes: []topo.LinkClass{topo.LAN}, Seeds: []int64{6}, Fanout: 2},
	{Experiment: ExpScenario, Scenarios: []string{"gossip-partition"}, Seeds: []int64{7}},
}

// TestCellSpecSurvivesJSON: every knob a cell or a swarm figure sets
// is reachable from JSON — the spec, marshalled and loaded back, runs
// to the identical result.
func TestCellSpecSurvivesJSON(t *testing.T) {
	specs := map[string]scenario.Spec{
		"fig8":  ScaleSpec(Fig8Spec(), 20),
		"fig10": ScaleSpec(Fig10Spec(), 64),
	}
	for _, g := range familyGrids {
		cells, err := g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := cells[0].Spec()
		if err != nil {
			t.Fatal(err)
		}
		specs[string(g.Experiment)] = sp
	}
	for name, sp := range specs {
		sp := sp
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			direct, err := scenario.Run(&sp, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := scenario.Load(blob)
			if err != nil {
				t.Fatal(err)
			}
			viaJSON, err := scenario.Run(loaded, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, viaJSON) {
				t.Errorf("spec changed across JSON %s:\ndirect %+v\nloaded %+v", blob, direct, viaJSON)
			}
			if direct.Done == 0 {
				t.Errorf("cell did nothing: %+v", direct.Snapshot)
			}
		})
	}
}

// TestCellSpecShape pins what a cell compiles to: one group on the
// named class from 10.0.0.1 up, seeders in front of the peers, the
// firewall only when the rules axis asks for it.
func TestCellSpecShape(t *testing.T) {
	cells, err := familyGrids[0].Cells()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := cells[0].Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.GroupSpec{Name: "peers", Class: "fast-dsl", Nodes: 2 + 4, Prefix: "10.0.0.0/16"}
	if len(sp.Groups) != 1 || sp.Groups[0] != want {
		t.Errorf("groups = %+v, want one %+v", sp.Groups, want)
	}
	if sp.Model != "flow" || sp.FlowWindow.D() != 50*time.Millisecond || sp.Seed != 3 || sp.Horizon.D() != time.Hour {
		t.Errorf("run knobs not copied: %+v", sp)
	}
	if sp.FillerRules != 100 || sp.Classifier != "indexed" || !sp.FirewallEnabled() {
		t.Errorf("rules axis not compiled: filler_rules %d classifier %q", sp.FillerRules, sp.Classifier)
	}
	bare := cells[0]
	bare.Rules = 0
	if sp, _ := bare.Spec(); sp.FirewallEnabled() {
		t.Error("a rules=0 cell compiled to a firewalled spec")
	}
	if _, err := (Cell{Experiment: ExpSched, Class: topo.DSL}).Spec(); err == nil {
		t.Error("sched cell compiled to a spec")
	}
	if sp, err := (Cell{Experiment: ExpPing, Class: topo.DSL, Peers: 2}).Spec(); err != nil ||
		sp.Workload.Kind != scenario.WorkloadPing || sp.Classifier != "linear" || !sp.FirewallEnabled() {
		t.Errorf("ping cell compiled to %+v, %v; want the ping workload with an empty linear table", sp, err)
	}
}

// TestSpecFamiliesRejectSeedZero: a spec reads seed 0 as seed 1, so a
// `-seeds 0,1` sweep of any family that compiles to a spec — all but
// sched — would run one cell twice.
func TestSpecFamiliesRejectSeedZero(t *testing.T) {
	for _, e := range Experiments {
		_, err := Grid{Experiment: e, Seeds: []int64{0, 1}}.Cells()
		if e != ExpSched && err == nil {
			t.Errorf("%s accepted seed 0", e)
		}
		if e == ExpSched && err != nil {
			t.Errorf("%s has its own kernel seed and must accept 0: %v", e, err)
		}
	}
}

// TestCellBoundsFailTheCell: a class that is not a topo.Classes entry
// and a population past the scenario group bound are that cell's
// error — siblings still run.
func TestCellBoundsFailTheCell(t *testing.T) {
	bespoke := topo.DSL
	bespoke.Up *= 2 // same name, other rates: a spec could not say it
	res, err := RunSweep(Grid{Experiment: ExpGossip, Peers: []int{4},
		Classes: []topo.LinkClass{bespoke, topo.LAN}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Cells[0].Err == nil || res.Cells[1].Err != nil {
		t.Fatalf("want exactly the bespoke-class cell failed: %v", res.Errs())
	}
	if !strings.Contains(res.Cells[0].Err.Error(), "topo.Classes") {
		t.Errorf("class error does not say why: %v", res.Cells[0].Err)
	}

	res, err = RunSweep(Grid{Experiment: ExpGossip, Peers: []int{8193, 4}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Cells[0].Err == nil || res.Cells[1].Err != nil {
		t.Fatalf("want exactly the oversized cell failed: %v", res.Errs())
	}
	if !strings.Contains(res.Cells[0].Err.Error(), "8192") {
		t.Errorf("size error does not name the bound: %v", res.Cells[0].Err)
	}
}
