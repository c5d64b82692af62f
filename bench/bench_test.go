package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: the
// harness re-runs its own executable for every repetition, so a child
// started by a test lands here and must behave like `bench` does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := childMain(); err != nil {
			os.Stderr.WriteString("bench child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const goldenPath = "../internal/scenario/testdata/golden_digests.json"

// Every workload kind at a scale that runs in milliseconds.
const (
	tinySwarm = `{"name": "tiny-swarm", "horizon": "10m",
		"groups": [{"name": "lan", "class": "campus", "nodes": 7}],
		"workload": {"kind": "swarm", "file_size": 1048576, "seeders": 1, "start_interval": "10ms"}}`
	tinyFlow = `{"name": "tiny-flow", "model": "flow", "flow_window": "250ms", "horizon": "30m",
		"groups": [{"name": "dsl", "class": "dsl", "nodes": 6}],
		"workload": {"kind": "swarm", "file_size": 262144, "seeders": 1, "start_interval": "1s"}}`
	tinySnapshot = `{"name": "tiny-snapshot", "model": "flow", "horizon": "1h",
		"groups": [{"name": "crowd", "class": "fast-dsl", "nodes": 4}],
		"workload": {"kind": "snapshot", "file_size": 262144, "piece_length": 65536, "seeders": 1,
			"start_interval": "250ms", "up_rate": 65536}}`
	tinySweep = `{"workers": 2, "grids": [
		{"experiment": "dht", "peers": [8, 12], "classes": ["lan"], "seeds": [1], "lookups": 10},
		{"experiment": "gossip", "peers": [16], "classes": ["lan"], "seeds": [1, 2]},
		{"experiment": "churn", "peers": [4], "churn": [0], "seeds": [1], "file_size": 262144}]}`
	tinyCorpus = `{"passes": 1, "scenarios": ["gossip-partition", "lossy-mobile-gossip"]}`
)

var tinyWorkloads = []workload{
	{name: "swarm-pipe", kind: kindScenario, data: []byte(tinySwarm), seeded: true},
	{name: "fig8-flow-windowed", kind: kindScenario, data: []byte(tinyFlow), seeded: true},
	{name: "snapshot-capped", kind: kindScenario, data: []byte(tinySnapshot)},
	{name: "sweep-overlay", kind: kindSweep, data: []byte(tinySweep)},
	{name: "corpus-golden", kind: kindCorpus, data: []byte(tinyCorpus)},
}

func self(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestEveryWorkloadTiny drives all five workload kinds through the
// path the real benchmark takes — parent, fresh child per repetition,
// summary, result line — and checks the contract's shape.
func TestEveryWorkloadTiny(t *testing.T) {
	p := plan{exe: self(t), workloads: tinyWorkloads, seed: 1, reps: 2, traced: true, golden: goldenPath}
	m, err := measure(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rep := report(p, m)
	if !rep.ok() {
		for _, w := range rep.Workloads {
			t.Errorf("%s: %v", w.Name, w.Problems)
		}
	}
	units := map[string]string{"wall_s": "s", "cpu_s": "s", "alloc_mb": "MB", "peak_rss_mb": "MB", "setup_s": "s"}
	wantOps := map[string]int{
		"swarm-pipe": 6, "fig8-flow-windowed": 5, "snapshot-capped": 3, // clients
		"sweep-overlay": 5, // cells
		"corpus-golden": 2, // scenarios
	}
	for _, w := range rep.Workloads {
		untraced, traced := split(w.Reps)
		if len(untraced) != 1 || len(traced) != 1 {
			t.Errorf("%s: %d untraced and %d traced repetitions, want 1 and 1", w.Name, len(untraced), len(traced))
		}
		if n := len(w.Reps[0].Setups); n != setupSamples+1 {
			t.Errorf("%s: %d set-up samples with the untraced repetition, want %d", w.Name, n, setupSamples+1)
		}
		if want := wantOps[w.Name] * len(w.Reps); w.Ops != want || w.OpsFailed != 0 {
			t.Errorf("%s: %d ops, %d failed; want %d, 0", w.Name, w.Ops, w.OpsFailed, want)
		}
		res := rep.result(w.Name, false)
		if len(res.Metrics) != len(units) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(res.Metrics), len(units))
		}
		for name, unit := range units {
			got, ok := res.Metrics[name]
			if !ok || got.Unit != unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.Name, name, got, ok, unit)
			}
		}
		if !res.Correct || res.Attempted != w.Ops || res.Failed != 0 {
			t.Errorf("%s: result line %+v", w.Name, res)
		}
		layer := rep.result(w.Name, true)
		if len(layer.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(layer.Metrics), len(perLayer))
		}
		if v := layer.Metrics["sim.timer_ns"].Value; v <= 0 {
			t.Errorf("%s: probe sim.timer_ns = %v", w.Name, v)
		}
	}
	// The exact counters come from where the work happens.
	byName := map[string]workloadReport{}
	for _, w := range rep.Workloads {
		byName[w.Name] = w
	}
	for _, check := range []struct {
		workload, metric string
		positive         bool
	}{
		{"swarm-pipe", "sim.events", true},
		{"swarm-pipe", "bt.downloads_completed", true},
		{"swarm-pipe", "netem.pipe_msgs", true},
		{"swarm-pipe", "flow.started", false},
		{"swarm-pipe", "trace.events", false},
		{"fig8-flow-windowed", "flow.flushes", true},
		{"snapshot-capped", "flow.solves", true},
		{"snapshot-capped", "flow.flushes", false},
		{"sweep-overlay", "exp.cells", true},
		{"sweep-overlay", "gossip.pushes", true},
		{"sweep-overlay", "exp.worker_utilization", true},
		{"corpus-golden", "trace.events", true},
		{"corpus-golden", "trace.bytes_rendered", true},
		{"corpus-golden", "obs.series", true},
	} {
		v := byName[check.workload].Layer[check.metric]
		if (v > 0) != check.positive {
			t.Errorf("%s %s = %v, want positive: %v", check.workload, check.metric, v, check.positive)
		}
	}

	dir := t.TempDir()
	if err := rep.write(dir); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	data, err := os.ReadFile(filepath.Join(dir, "trace-sweep-overlay.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 1 {
		t.Fatalf("trace file holds spans of %d repetitions, want 1", len(tf.Spans))
	}
	cells := 0
	for _, s := range tf.Spans[0] {
		if strings.HasPrefix(s.Name, "cell ") {
			cells++
			if parent := tf.Spans[0][s.Parent-1]; !strings.HasPrefix(parent.Name, "exp.sweep_") {
				t.Errorf("cell span %q hangs under %q, want a sweep span", s.Name, parent.Name)
			}
		}
		if s.EndNs < s.StartNs || s.Workload != "sweep-overlay" {
			t.Errorf("bad span %+v", s)
		}
	}
	if cells != 5 {
		t.Errorf("%d cell spans, want 5", cells)
	}
}

// child runs one job through the child-process path.
func child(t *testing.T, j job) rep {
	t.Helper()
	r, err := runChild(context.Background(), self(t), j)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCorruptGoldenDigestIsOneFailedOp: a digest that differs from the
// committed one is a failed operation, and only that scenario's.
func TestCorruptGoldenDigestIsOneFailedOp(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	golden["gossip-partition"] = strings.Repeat("0", 64)
	corrupt, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	r := child(t, job{Workload: "corpus-golden", Kind: kindCorpus, Data: []byte(tinyCorpus), Golden: path})
	if r.Ops != 2 || r.Failed != 1 || len(r.Failures) != 1 || !strings.Contains(r.Failures[0], "gossip-partition") {
		t.Errorf("ops %d, failed %d, failures %v; want 2 ops, gossip-partition failed", r.Ops, r.Failed, r.Failures)
	}
	w := summarise("corpus-golden", []rep{r}, nil)
	if len(w.Problems) == 0 || w.OpsFailed != 1 {
		t.Errorf("summary: %d failed, problems %v; want the failed digest reported", w.OpsFailed, w.Problems)
	}
}

// TestShortHorizonCountsUnfinishedPeers: a horizon too short for the
// swarm leaves peers unfinished, and each is a failed operation.
func TestShortHorizonCountsUnfinishedPeers(t *testing.T) {
	short := strings.Replace(tinySwarm, `"horizon": "10m"`, `"horizon": "50ms"`, 1)
	r := child(t, job{Workload: "swarm-pipe", Kind: kindScenario, Data: []byte(short), Seed: 1})
	if r.Ops != 6 || r.Failed < 1 || r.Failed > 6 {
		t.Errorf("ops %d, failed %d; want 6 ops and some unfinished peers", r.Ops, r.Failed)
	}
}

// TestFingerprintPinsTheSeed: two runs of one seed agree on the
// fingerprint, two seeds do not, and a disagreement between
// repetitions is reported as non-determinism.
func TestFingerprintPinsTheSeed(t *testing.T) {
	j := job{Workload: "swarm-pipe", Kind: kindScenario, Data: []byte(tinySwarm), Seed: 1}
	a, b := child(t, j), child(t, j)
	if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
		t.Errorf("seed 1 twice: fingerprints %q and %q", a.Fingerprint, b.Fingerprint)
	}
	j.Seed = 2
	c := child(t, j)
	if c.Fingerprint == a.Fingerprint {
		t.Errorf("seeds 1 and 2 share fingerprint %q", a.Fingerprint)
	}
	if w := summarise("swarm-pipe", []rep{a, b}, nil); len(w.Problems) != 0 {
		t.Errorf("equal fingerprints reported as %v", w.Problems)
	}
	if w := summarise("swarm-pipe", []rep{a, c}, nil); len(w.Problems) != 1 || !strings.Contains(w.Problems[0], "non-determinism") {
		t.Errorf("differing fingerprints reported as %v", w.Problems)
	}
}

// TestExactCountersMustRepeat: traced repetitions that disagree on an
// exact counter are reported; timings may differ and are medianed.
func TestExactCountersMustRepeat(t *testing.T) {
	mk := func(events, cpu float64) rep {
		return rep{Traced: true, repResult: repResult{Layer: map[string]float64{"sim.events": events, "sim.cpu_s": cpu}}}
	}
	layer, differ := layerValues([]rep{mk(100, 1), mk(100, 3), mk(100, 2)})
	if len(differ) != 0 || layer["sim.events"] != 100 || layer["sim.cpu_s"] != 2 {
		t.Errorf("agreeing repetitions: differ %v, events %v, cpu %v", differ, layer["sim.events"], layer["sim.cpu_s"])
	}
	_, differ = layerValues([]rep{mk(100, 1), mk(101, 1)})
	if len(differ) != 1 || !strings.Contains(differ[0], "sim.events") {
		t.Errorf("disagreeing repetitions: differ %v", differ)
	}
}

// TestSeedReachesOnlySeededWorkloads pins which workloads -seed
// changes; the others run their fixed inputs (job seed 0).
func TestSeedReachesOnlySeededWorkloads(t *testing.T) {
	for _, w := range workloads {
		got := w.job(plan{seed: 7}, false).Seed
		want := int64(0)
		if w.name == "swarm-pipe" || w.name == "fig8-flow-windowed" {
			want = 7
		}
		if got != want {
			t.Errorf("%s: -seed 7 gives kernel seed %d, want %d", w.name, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric
// tables and workloads the harness prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, listed []entry, defs []metric, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(listed), len(defs))
			return
		}
		for i, m := range defs {
			e := listed[i]
			if e.Name != m.name || e.Unit != m.unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the harness", kind, i, e.Name, e.Unit, m.name, m.unit)
			}
			if bounded && (e.Bound == nil || *e.Bound != m.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json differs from %v in the harness", kind, m.name, m.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
}
