package exp

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// runOne runs the single cell of a one-point grid and returns the
// scenario result behind its snapshot, for tests that read the typed
// fields a snapshot flattens to floats.
func runOne(g Grid) (*scenario.Result, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	sp, err := cells[0].Spec()
	if err != nil {
		return nil, err
	}
	return scenario.Run(&sp, scenario.Options{})
}

// sweepSnapshots runs a grid the way a figure does and returns its
// snapshots in grid order; any failed cell fails the test.
func sweepSnapshots(t *testing.T, g Grid) []*metrics.Snapshot {
	t.Helper()
	res, err := RunSweep(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatal(res.Errs())
	}
	return res.Snapshots()
}

// TestGridExpansion checks the cross product is exhaustive,
// duplicate-free and in deterministic grid order.
func TestGridExpansion(t *testing.T) {
	g := Grid{
		Experiment: ExpDHT,
		Peers:      []int{4, 8, 16},
		Classes:    []topo.LinkClass{topo.LAN, topo.DSL},
		Seeds:      []int64{1, 2},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3*2*2 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := c.String()
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
	}
	// Every axis combination must appear (exhaustive).
	for _, p := range g.Peers {
		for _, cl := range g.Classes {
			for _, s := range g.Seeds {
				want := Cell{Experiment: ExpDHT, Peers: p, Class: cl, Seed: s}.String()
				if !seen[want] {
					t.Fatalf("missing cell %s", want)
				}
			}
		}
	}
	// Row-major order: seed varies fastest, peers slowest.
	if cells[0].Peers != 4 || cells[0].Seed != 1 || cells[1].Seed != 2 {
		t.Fatalf("unexpected order: %v then %v", cells[0], cells[1])
	}
	if cells[len(cells)-1].Peers != 16 {
		t.Fatalf("last cell %v should have the largest population", cells[len(cells)-1])
	}
}

// TestGridDefaults checks a zero-ish grid is exactly one cell.
func TestGridDefaults(t *testing.T) {
	cells, err := Grid{}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("default grid expanded to %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Experiment != ExpSwarm || c.Peers != 16 || c.Churn != 0 || c.Class.Name != "dsl" || c.Seed != 1 {
		t.Fatalf("default cell = %v", c)
	}
	// The churn experiment defaults to a churning population.
	cells, err = Grid{Experiment: ExpChurn}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Churn != 0.5 {
		t.Fatalf("churn default = %g, want 0.5", cells[0].Churn)
	}
}

// TestGridRejectsDuplicates checks that repeated axis values and
// multi-valued ignored axes are rejected rather than silently
// producing duplicate cells.
func TestGridRejectsDuplicates(t *testing.T) {
	ints47, seeds47 := make([]int, 47), make([]int64, 47)
	for i := range ints47 {
		ints47[i], seeds47[i] = i+2, int64(i+1)
	}
	cases := []Grid{
		{Experiment: ExpDHT, Peers: []int{8, 8}},
		{Experiment: ExpDHT, Seeds: []int64{1, 1}},
		{Experiment: ExpSwarm, Churn: []float64{0.2, 0.2}},
		{Experiment: ExpDHT, Classes: []topo.LinkClass{topo.DSL, topo.DSL}},
		{Experiment: ExpDHT, Churn: []float64{0, 0.5}},                           // dht ignores churn
		{Experiment: ExpSched, Classes: []topo.LinkClass{topo.DSL, topo.Campus}}, // sched ignores class
		{Experiment: ExpChurn, Churn: []float64{1.5}},                            // churn outside [0,1)
		{Experiment: ExpChurn, Churn: []float64{-0.5}},
		{Experiment: "bogus"},
		{Experiment: ExpDHT, Windows: []time.Duration{0, 50 * time.Millisecond}}, // dht ignores the window
		{Experiment: ExpSwarm, Windows: []time.Duration{time.Millisecond, time.Millisecond}},
		{Experiment: ExpSwarm, Windows: []time.Duration{-time.Millisecond}},
		// A positive window with no flow model on the models axis has no
		// solver to batch.
		{Experiment: ExpSwarm, Windows: []time.Duration{50 * time.Millisecond}},
		{Experiment: ExpSwarm, Windows: []time.Duration{50 * time.Millisecond},
			Models: []netem.ModelKind{netem.ModelPipe}},
		// One value on an axis the family does not read is enough to
		// mislabel every row: nothing churns in a ring, sched has no
		// network, ping is a fixed pair, a scenario spec owns its links.
		{Experiment: ExpDHT, Peers: []int{8}, Churn: []float64{0.3}},
		{Experiment: ExpSched, Classes: []topo.LinkClass{topo.Modem}},
		{Experiment: ExpSched, Models: []netem.ModelKind{netem.ModelFlow}},
		{Experiment: ExpPing, Peers: []int{50}},
		{Experiment: ExpScenario, Classes: []topo.LinkClass{topo.Modem}, Models: []netem.ModelKind{netem.ModelFlow}},
		// 47^3 = 103 823 honest cells are past the cap.
		{Experiment: ExpSwarm, Peers: ints47, Rules: ints47, Seeds: seeds47},
	}
	for i, g := range cases {
		if _, err := g.Cells(); err == nil {
			t.Errorf("case %d: expected error, got none", i)
		}
	}
}

// TestGridWindowAxis expands a models × windows grid: flow cells carry
// every window, pipe cells collapse to a single window=0 cell instead
// of duplicating per window value.
func TestGridWindowAxis(t *testing.T) {
	g := Grid{
		Experiment: ExpSwarm,
		Models:     []netem.ModelKind{netem.ModelPipe, netem.ModelFlow},
		Windows:    []time.Duration{0, 50 * time.Millisecond, 250 * time.Millisecond},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// 1 pipe cell + 3 flow cells.
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4: %v", len(cells), cells)
	}
	var pipe, flow, windowed int
	for _, c := range cells {
		switch c.Model {
		case netem.ModelPipe:
			pipe++
			if c.Window != 0 {
				t.Fatalf("pipe cell carries window %v: %s", c.Window, c)
			}
		case netem.ModelFlow:
			flow++
			if c.Window > 0 {
				windowed++
				if !strings.Contains(c.String(), "window="+c.Window.String()) {
					t.Fatalf("windowed cell label misses the window: %s", c)
				}
			}
		}
	}
	if pipe != 1 || flow != 3 || windowed != 2 {
		t.Fatalf("pipe=%d flow=%d windowed=%d, want 1/3/2", pipe, flow, windowed)
	}
	// Window=0 cells keep the pre-axis label so existing result rows
	// stay comparable.
	if s := cells[0].String(); strings.Contains(s, "window=") {
		t.Fatalf("window=0 cell label changed: %s", s)
	}
}

// sweepCSV renders a sweep's per-cell snapshots to CSV bytes.
func sweepCSV(t *testing.T, r *SweepResult) string {
	t.Helper()
	var b strings.Builder
	if err := metrics.WriteSnapshotsCSV(&b, r.Snapshots()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSweepWorkerCountIndependence runs the same grid with a serial
// pool and a wide pool: per-cell snapshots and the merged aggregate
// must be identical, because cells are independent kernels.
func TestSweepWorkerCountIndependence(t *testing.T) {
	g := Grid{
		Experiment: ExpDHT,
		Peers:      []int{4, 6},
		Seeds:      []int64{1, 2},
		Lookups:    10,
	}
	serial, err := RunSweep(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSweep(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Failed != 0 || wide.Failed != 0 {
		t.Fatalf("failures: serial %v, wide %v", serial.Errs(), wide.Errs())
	}
	if a, b := sweepCSV(t, serial), sweepCSV(t, wide); a != b {
		t.Fatalf("per-cell results depend on worker count:\nserial:\n%s\nwide:\n%s", a, b)
	}
	if !reflect.DeepEqual(serial.Merged, wide.Merged) {
		t.Fatalf("merged aggregates depend on worker count:\nserial %+v\nwide %+v",
			serial.Merged, wide.Merged)
	}
	want := metrics.NewAggregate()
	for _, c := range serial.Cells {
		want.Add(c.Snapshot)
	}
	if len(serial.Cells) != 4 || !reflect.DeepEqual(serial.Merged, want) {
		t.Fatalf("merged aggregate is not the sum of the 4 cells:\ngot  %+v\nwant %+v", serial.Merged, want)
	}
}

// TestSweepFailingCellIsolation checks a failing cell surfaces its
// error without poisoning sibling cells.
func TestSweepFailingCellIsolation(t *testing.T) {
	g := Grid{
		Experiment: ExpDHT,
		Peers:      []int{1, 4}, // population 1 cannot form a ring: cell error
		Lookups:    10,
	}
	res, err := RunSweep(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (errs: %v)", res.Failed, res.Errs())
	}
	if res.Cells[0].Err == nil || res.Cells[0].Snapshot != nil {
		t.Fatalf("failing cell: err=%v snapshot=%v", res.Cells[0].Err, res.Cells[0].Snapshot)
	}
	if res.Cells[1].Err != nil || res.Cells[1].Snapshot == nil {
		t.Fatalf("sibling cell poisoned: err=%v", res.Cells[1].Err)
	}
	want := metrics.NewAggregate()
	want.Add(res.Cells[1].Snapshot)
	if !reflect.DeepEqual(res.Merged, want) {
		t.Fatalf("merged aggregate is not the sibling cell's alone:\ngot  %+v\nwant %+v", res.Merged, want)
	}
	errs := res.Errs()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "dht[peers=1") {
		t.Fatalf("errors should identify the failing cell: %v", errs)
	}
}

// TestSweepSchedCell smoke-tests the sched adapter end to end and the
// aggregate table rendering.
func TestSweepSchedCell(t *testing.T) {
	g := Grid{Experiment: ExpSched, Peers: []int{20, 40}, Seeds: []int64{1}}
	res, err := RunSweep(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatal(res.Errs())
	}
	sum := res.Merged.Summary("exec-avg-s/Linux 2.6")
	if sum.N != 2 || sum.Min <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	var b strings.Builder
	if err := res.Merged.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "exec-avg-s") {
		t.Fatalf("table missing measurements:\n%s", b.String())
	}
}

// TestGridSnapshotAxes pins the snapshot-sync axis wiring: defaults
// expand to one Erigon-shaped cell, the new axes cross-multiply, and
// every other experiment rejects them loudly.
func TestGridSnapshotAxes(t *testing.T) {
	cells, err := Grid{Experiment: ExpSnapshotSync}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("default snapshot grid = %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Peers != 4 || c.PieceSize != 2<<20 || c.ConnCap != 5 || c.Rate != 0 {
		t.Fatalf("default cell = %+v", c)
	}
	if c.fileSize != 16<<20 {
		t.Fatalf("default snapshot file size = %d, want 16 MiB", c.fileSize)
	}
	cells, err = Grid{
		Experiment: ExpSnapshotSync,
		PieceSizes: []int{512 * 1024, 2 << 20},
		ConnCaps:   []int{2, 5},
		Rates:      []int64{0, 256 * 1024},
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("2x2x2 snapshot grid = %d cells, want 8", len(cells))
	}
	if _, err := (Grid{Experiment: ExpSwarm, PieceSizes: []int{1 << 20}}).Cells(); err == nil {
		t.Fatal("swarm must reject the piece-size axis")
	}
	if _, err := (Grid{Experiment: ExpDHT, Rates: []int64{1024}}).Cells(); err == nil {
		t.Fatal("dht must reject the rate axis")
	}
	if _, err := (Grid{Experiment: ExpSnapshotSync, ConnCaps: []int{0}}).Cells(); err == nil {
		t.Fatal("non-positive conn cap must be rejected")
	}
}

// TestSweepSnapshotCellsDeterministic runs a small rate-capped
// snapshot-sync grid serially and in parallel: the per-cell results
// must be identical for any worker count (rate limiters are virtual
// time, so metering cannot observe wall-clock scheduling), every cell
// must complete, and the web seed must have carried traffic.
func TestSweepSnapshotCellsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot cells are slow")
	}
	g := Grid{
		Experiment: ExpSnapshotSync,
		Peers:      []int{2},
		FileSize:   2 << 20,
		PieceSizes: []int{512 * 1024},
		ConnCaps:   []int{2},
		// The capped value sits well under the DSL downlink (~256 KiB/s),
		// so the limiter — not the link — is the bottleneck.
		Rates:   []int64{0, 64 * 1024},
		Horizon: time.Hour,
	}
	serial, err := RunSweep(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSweep(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Failed != 0 || wide.Failed != 0 {
		t.Fatalf("failures: serial %v, wide %v", serial.Errs(), wide.Errs())
	}
	if a, b := sweepCSV(t, serial), sweepCSV(t, wide); a != b {
		t.Fatalf("snapshot cells depend on worker count:\nserial:\n%s\nwide:\n%s", a, b)
	}
	for i, cr := range serial.Cells {
		if cr.Snapshot.Values["done-fraction"] != 1 {
			t.Fatalf("cell %d incomplete: %v", i, cr.Snapshot.Values)
		}
		if cr.Snapshot.Counters["webseed-bytes"] == 0 {
			t.Fatalf("cell %d: web seed served nothing", i)
		}
	}
	// The capped cell must be strictly slower than the uncapped one.
	free := serial.Cells[0].Snapshot.Values["last-completion-s"]
	capped := serial.Cells[1].Snapshot.Values["last-completion-s"]
	if capped <= free {
		t.Fatalf("rate cap had no effect: capped %.2fs vs free %.2fs", capped, free)
	}
}

// TestSweepSwarmAndChurnCells runs one tiny swarm cell and one tiny
// churn cell through the public adapter, checking the swarm-family
// routing on the churn axis.
func TestSweepSwarmAndChurnCells(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm cells are slow")
	}
	g := Grid{
		Experiment: ExpSwarm,
		Peers:      []int{6},
		Churn:      []float64{0, 0.5},
		FileSize:   1 << 20,
		Horizon:    4 * time.Hour,
	}
	res, err := RunSweep(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatal(res.Errs())
	}
	plain, churned := res.Cells[0].Snapshot, res.Cells[1].Snapshot
	if plain.Values["done-fraction"] != 1 {
		t.Fatalf("plain swarm incomplete: %v", plain.Values)
	}
	if _, ok := churned.Counters["arrivals"]; !ok {
		t.Fatalf("churn cell did not run the churn variant: %v", churned.Counters)
	}
	if plain.Counters["kernel-events"] == 0 {
		t.Fatal("swarm cell recorded no kernel activity")
	}
}
