package exp

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topo"
)

// The sweep engine turns every experiment family into a grid-runnable
// scenario: a Grid is the cross product of the axis table's twelve rows
// (axes.go: population, churn, class, model, window, scenario, rules,
// classifier, piece size, connection cap, rate, seed), each cell runs
// as an independent deterministic sim.Kernel on a bounded worker pool,
// and per-cell metrics.Snapshot results merge into an aggregate table
// and CSV. Determinism is per-kernel (see repro/internal/sim), so
// parallelism across cells cannot perturb any cell's result: the merged
// output is identical for any worker count. The dht, gossip and Fig 1
// figures of `p2plab -fig` are such grids, plotted from the snapshots.

// Experiment names a sweepable scenario family.
type Experiment string

// The families; which axes each reads is the axis table's (axes.go).
const (
	// ExpSwarm is the BitTorrent swarm download (Figs 8-11). Cells with
	// a nonzero churn rate run the churn variant (extension E3).
	ExpSwarm Experiment = "swarm"
	// ExpChurn is the churned swarm with a default churn rate of 0.5;
	// otherwise identical to ExpSwarm.
	ExpChurn Experiment = "churn"
	// ExpDHT is the Chord lookup experiment (extensions E1/E2).
	ExpDHT Experiment = "dht"
	// ExpGossip is the epidemic dissemination experiment (E6).
	ExpGossip Experiment = "gossip"
	// ExpSched is the scheduler-suitability workload (Figs 1-3).
	ExpSched Experiment = "sched"
	// ExpScenario runs named scenarios from the committed corpus
	// (repro/internal/scenario); the seed axis replicates them.
	ExpScenario Experiment = "scenario"
	// ExpPing is the firewall rule-scaling measurement (Fig 6): ping
	// RTT against the rule-table size, under either classifier.
	ExpPing Experiment = "ping"
	// ExpSnapshotSync is the few-peers/huge-file regime of Erigon's
	// snapshot downloader: large pieces, capped connections, token-
	// bucket rate limiters and web seeds, measured by completion time.
	ExpSnapshotSync Experiment = "snapshot-sync"
)

// Experiments lists the sweepable experiment families.
var Experiments = []Experiment{ExpSwarm, ExpChurn, ExpDHT, ExpGossip, ExpSched, ExpScenario, ExpPing, ExpSnapshotSync}

// Grid is a parameter grid. Cells() expands the cross product of the
// axes; nil axes get a single experiment-appropriate default, so a
// zero-ish Grid is one cell. Axis values must be distinct, and an axis
// the experiment does not read (the axis table says which) must stay
// nil: the expansion is exhaustive, duplicate-free and honestly
// labelled.
type Grid struct {
	Experiment  Experiment
	Peers       []int              // population sizes (clients / ring size / processes)
	Churn       []float64          // churn fractions in [0,1)
	Classes     []topo.LinkClass   // access-link classes
	Models      []netem.ModelKind  // link-emulation models (pipe, flow)
	Windows     []time.Duration    // flow-model batch windows; needs the flow model on the models axis
	Scenarios   []string           // corpus scenario names
	Rules       []int              // firewall rule-table sizes
	Classifiers []netem.Classifier // firewall classifiers (linear, indexed)
	PieceSizes  []int              // torrent piece lengths in bytes
	ConnCaps    []int              // per-client connection caps
	Rates       []int64            // symmetric up/down rate caps in bytes/s (0 = unlimited)
	Seeds       []int64

	// Knobs held constant across the grid.
	FileSize int           // bytes per swarm download (default 2 MiB)
	Lookups  int           // DHT lookups per cell (default 100)
	Fanout   int           // gossip fanout (default 3)
	Horizon  time.Duration // virtual-time cap per cell (default 6 h)
}

// Cell is one point of the grid.
type Cell struct {
	Experiment Experiment
	Peers      int
	Churn      float64
	Class      topo.LinkClass
	Model      netem.ModelKind
	Window     time.Duration // flow-model batch window; always 0 for pipe cells
	Scenario   string
	Rules      int              // firewall rule-table size
	Classifier netem.Classifier // the first on the axis when Rules is 0
	PieceSize  int              // piece length in bytes
	ConnCap    int              // per-client connection cap
	Rate       int64            // symmetric rate cap in bytes/s
	Seed       int64

	fileSize int
	lookups  int
	fanout   int
	horizon  time.Duration
}

// String identifies the cell in logs and errors.
func (c Cell) String() string {
	if c.Experiment == ExpScenario {
		return fmt.Sprintf("%s[%s seed=%d]", c.Experiment, c.Scenario, c.Seed)
	}
	win := ""
	if c.Window > 0 {
		win = fmt.Sprintf(" window=%s", c.Window)
	}
	if c.Experiment == ExpSnapshotSync {
		return fmt.Sprintf("%s[peers=%d class=%s model=%s%s piece=%d conncap=%d rate=%d seed=%d]",
			c.Experiment, c.Peers, c.Class.Name, c.Model, win, c.PieceSize, c.ConnCap, c.Rate, c.Seed)
	}
	// Only a family that reads the rules axis can carry a nonzero Rules.
	if c.Experiment == ExpPing || c.Rules > 0 {
		return fmt.Sprintf("%s[peers=%d churn=%g class=%s model=%s%s rules=%d classifier=%s seed=%d]",
			c.Experiment, c.Peers, c.Churn, c.Class.Name, c.Model, win, c.Rules, c.Classifier, c.Seed)
	}
	return fmt.Sprintf("%s[peers=%d churn=%g class=%s model=%s%s seed=%d]",
		c.Experiment, c.Peers, c.Churn, c.Class.Name, c.Model, win, c.Seed)
}

// maxCells bounds one grid's expansion. The product of the axis lengths
// is held against it before anything is allocated, so a small request
// cannot ask for more cells than a sweep could ever run.
const maxCells = 100_000

// Cells expands the grid into its cells, in row-major order over the
// axis table (peers slowest, seed fastest). A sweep must be exhaustive,
// duplicate-free and honestly labelled, so it rejects repeated and
// out-of-range axis values and any value on an axis the experiment
// does not read.
func (g Grid) Cells() ([]Cell, error) {
	exp := g.Experiment
	if exp == "" {
		exp = ExpSwarm
	}
	if !slices.Contains(Experiments, exp) {
		return nil, fmt.Errorf("exp: unknown experiment %q", exp)
	}

	asked := g // the caller's columns; g's empty ones take their defaults below
	lens := make([]int, len(axes))
	product := 1
	for i := range axes {
		a := &axes[i]
		n, explicit := a.col.fill(&g, exp)
		if explicit && !slices.Contains(a.reads, exp) {
			return nil, fmt.Errorf("exp: %s ignores the %s axis", exp, a.Label)
		}
		if product *= n; product > maxCells {
			return nil, fmt.Errorf("exp: the grid asks for more than %d cells", maxCells)
		}
		if explicit {
			if err := a.col.check(&g, a.Label); err != nil {
				return nil, err
			}
		}
		lens[i] = n
	}

	// The rules that span two axes, or an axis and the family.
	positive := func(w time.Duration) bool { return w > 0 }
	if slices.ContainsFunc(asked.Windows, positive) && !slices.Contains(asked.Models, netem.ModelFlow) {
		// The window only exists inside the flow solver; a pipe-only
		// sweep would silently run every window value identically.
		return nil, fmt.Errorf("exp: the window axis needs the flow model on the models axis (the pipe model has no solver to batch)")
	}
	if len(asked.Classifiers) > 0 && !slices.ContainsFunc(asked.Rules, func(n int) bool { return n > 0 }) {
		// An empty table behaves identically under every classifier (the
		// swarm families do not even install one), so the axis would be
		// silently ignored.
		return nil, fmt.Errorf("exp: the classifier axis needs a nonzero rules axis value (an empty table is classifier-independent)")
	}
	if exp != ExpSched && slices.Contains(asked.Seeds, 0) {
		// A spec's seed 0 means "the default seed" (Spec.WithDefaults
		// maps it to 1), so it would silently duplicate seed 1's cell.
		return nil, fmt.Errorf("exp: %s sweeps need nonzero seeds (a scenario spec reads seed 0 as seed 1)", exp)
	}
	for _, name := range asked.Scenarios {
		if _, ok := scenario.ByName(name); !ok {
			return nil, fmt.Errorf("exp: unknown scenario %q (have %v)", name, scenario.Names())
		}
	}

	base := Cell{Experiment: exp, fileSize: g.FileSize, lookups: g.Lookups, fanout: g.Fanout, horizon: g.Horizon}
	if base.fileSize <= 0 {
		base.fileSize = 2 << 20
		if exp == ExpSnapshotSync {
			// The snapshot regime is defined by big transfers; a 2 MiB
			// default would be a single piece.
			base.fileSize = 16 << 20
		}
	}
	if base.lookups <= 0 {
		base.lookups = 100
	}
	if base.fanout <= 0 {
		base.fanout = 3
	}
	if base.horizon <= 0 {
		base.horizon = 6 * time.Hour
	}

	// One odometer over the rows: cell n's place on each axis is a digit
	// of n, the last axis the least significant. Two values mean nothing
	// in some cells — the batch window outside the flow solver, the
	// classifier of an empty table — so each cell is put in canonical
	// form and emitted the first time that form comes up: pipe cells
	// collapse to one window=0 cell and rules=0 cells to one baseline
	// cell, in the place row-major order first reaches them.
	cells := make([]Cell, 0, product)
	seen := make(map[Cell]bool, product)
	for n := 0; n < product; n++ {
		c := base
		for i, rest := len(axes)-1, n; i >= 0; i-- {
			axes[i].col.set(&c, &g, rest%lens[i])
			rest /= lens[i]
		}
		if c.Model != netem.ModelFlow {
			c.Window = 0
		}
		if c.Rules == 0 {
			c.Classifier = g.Classifiers[0]
		}
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// CellResult is one cell's outcome. Exactly one of Snapshot and Err is
// set: a failing cell carries its error here and never poisons
// siblings.
type CellResult struct {
	Cell     Cell
	Snapshot *metrics.Snapshot
	Err      error
	Wall     time.Duration
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Cells   []CellResult // in grid order, one per cell
	Merged  *metrics.Aggregate
	Failed  int
	Workers int // effective pool size after defaulting and clamping
	Wall    time.Duration
}

// Snapshots returns per-cell snapshots in grid order (nil for failed
// cells), ready for metrics.WriteSnapshotsCSV.
func (r *SweepResult) Snapshots() []*metrics.Snapshot {
	out := make([]*metrics.Snapshot, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = c.Snapshot
	}
	return out
}

// Errs returns the failed cells' errors, in grid order.
func (r *SweepResult) Errs() []error {
	var out []error
	for _, c := range r.Cells {
		if c.Err != nil {
			out = append(out, fmt.Errorf("%s: %w", c.Cell, c.Err))
		}
	}
	return out
}

// RunSweep executes every cell of the grid on a bounded pool of
// workers (default: one per CPU). Each worker runs one kernel at a
// time; cells are deterministic in isolation, so the merged result is
// byte-identical for any worker count. A failing
// or panicking cell records its error and leaves every other cell
// untouched.
func RunSweep(g Grid, workers int) (*SweepResult, error) {
	return RunSweepProgress(g, workers, nil)
}

// RunSweepProgress is RunSweep with a completion callback: onCell runs
// after each cell finishes (successfully or not), serialized under an
// internal mutex, with the count of completed cells so far and the
// grid total — the hook the serve layer streams per-cell progress
// from. Cells still complete in nondeterministic wall-clock order; the
// returned SweepResult remains in grid order and worker-count
// independent. A nil onCell is RunSweep exactly.
func RunSweepProgress(g Grid, workers int, onCell func(completed, total int, res CellResult)) (*SweepResult, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	start := time.Now()
	results := make([]CellResult, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	completed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runCellGuarded(cells[i])
				if onCell != nil {
					progressMu.Lock()
					completed++
					onCell(completed, len(cells), results[i])
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()

	res := &SweepResult{Cells: results, Merged: metrics.NewAggregate(), Workers: workers, Wall: time.Since(start)}
	for _, c := range results { // grid order: worker-count independent
		if c.Err != nil {
			res.Failed++
			continue
		}
		res.Merged.Add(c.Snapshot)
	}
	return res, nil
}

// runCellGuarded runs one cell, converting a panic into that cell's
// error so one bad cell cannot take down the sweep.
func runCellGuarded(c Cell) (res CellResult) {
	start := time.Now()
	res.Cell = c
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Snapshot = nil
			res.Err = fmt.Errorf("cell panicked: %v", r)
		}
	}()
	res.Snapshot, res.Err = RunCell(c)
	return res
}

// RunCell executes one grid cell on a fresh kernel and returns its
// snapshot.
func RunCell(c Cell) (*metrics.Snapshot, error) {
	if c.Peers < 2 && c.Experiment != ExpSched {
		return nil, fmt.Errorf("population %d too small (need at least 2 peers)", c.Peers)
	}
	if c.Peers < 1 {
		return nil, fmt.Errorf("population %d too small (need at least 1 process)", c.Peers)
	}
	snap := metrics.NewSnapshot()
	snap.Label("experiment", string(c.Experiment))
	for i := range axes {
		if a := &axes[i]; a.labelled(c) {
			snap.Label(a.Label, a.col.label(&c))
		}
	}

	run := runSpecCell
	if c.Experiment == ExpSched {
		run = runSchedCell
	}
	if err := run(c, snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// Spec compiles the cell to the scenario it runs — the one description
// every family but sched is assembled from. A scenario cell is its
// corpus spec under the cell's seed; every other family is a single
// group of seeders+peers nodes on the cell's class, addressed from
// 10.0.0.1 up, driving the family's workload with the cell's knobs.
func (c Cell) Spec() (scenario.Spec, error) {
	if c.Experiment == ExpScenario {
		sp, ok := scenario.ByName(c.Scenario)
		if !ok {
			return sp, fmt.Errorf("unknown scenario %q", c.Scenario)
		}
		sp.Seed = c.Seed
		return sp, nil
	}
	// A spec names its class, so the cell's must be the predefined one
	// of that name, not a look-alike with other rates.
	if known, ok := topo.ClassByName(c.Class.Name); !ok || known != c.Class {
		return scenario.Spec{}, fmt.Errorf("link class %+v is not one of topo.Classes", c.Class)
	}
	var w scenario.WorkloadSpec
	switch c.Experiment {
	case ExpSwarm, ExpChurn:
		w = scenario.WorkloadSpec{
			Kind:          scenario.WorkloadSwarm,
			FileSize:      int64(c.fileSize),
			Seeders:       2,
			StartInterval: scenario.Duration(2 * time.Second),
		}
		if c.Churn > 0 {
			w.Kind, w.ChurnFraction = scenario.WorkloadChurnSwarm, c.Churn
		} else if c.Peers >= 40 {
			w.Seeders = 4
		}
	case ExpSnapshotSync:
		w = scenario.WorkloadSpec{
			Kind:          scenario.WorkloadSnapshot,
			FileSize:      int64(c.fileSize),
			Seeders:       1,
			WebSeeds:      1,
			StartInterval: scenario.Duration(time.Second),
			PieceLength:   c.PieceSize,
			ConnCap:       c.ConnCap,
			UpRate:        c.Rate,
			DownRate:      c.Rate,
		}
	case ExpDHT:
		w = scenario.WorkloadSpec{Kind: scenario.WorkloadDHT, Lookups: c.lookups}
	case ExpGossip:
		w = scenario.WorkloadSpec{Kind: scenario.WorkloadGossip, Fanout: c.fanout}
	case ExpPing:
		w = scenario.WorkloadSpec{Kind: scenario.WorkloadPing}
	default:
		return scenario.Spec{}, fmt.Errorf("%s cells have no scenario form", c.Experiment)
	}
	sp := scenario.Spec{
		Name:        "sweep-" + string(c.Experiment),
		Model:       c.Model.String(),
		Seed:        c.Seed,
		Horizon:     scenario.Duration(c.horizon),
		FlowWindow:  scenario.Duration(c.Window),
		FillerRules: c.Rules,
		Groups: []scenario.GroupSpec{{
			Name: "peers", Class: c.Class.Name, Nodes: w.Seeders + c.Peers, Prefix: "10.0.0.0/16",
		}},
		Workload: w,
	}
	if c.Rules > 0 || c.Experiment == ExpPing {
		// A ping cell measures the table, so it has one even when empty.
		sp.Classifier = c.Classifier.String()
	}
	if c.Experiment == ExpPing {
		// Fig 6's setting: each host on its own machine, so a round trip
		// also crosses both machines' NICs and CPUs.
		sp.Folding = 1
	}
	return sp, nil
}

// runSpecCell runs the cell's scenario and copies its workload metrics
// into the cell snapshot.
func runSpecCell(c Cell, snap *metrics.Snapshot) error {
	sp, err := c.Spec()
	if err != nil {
		return err
	}
	res, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		return err
	}
	snap.Label("workload", res.Spec.Workload.Kind)
	snap.Label("model", res.Model.String())
	for k, v := range res.Snapshot.Values {
		snap.Set(k, v)
	}
	for k, v := range res.Snapshot.Counters {
		snap.Count(k, v)
	}
	return nil
}

func runSchedCell(c Cell, snap *metrics.Snapshot) error {
	for _, kind := range sched.Kinds {
		cfg := sched.DefaultConfig(kind)
		cfg.Seed = c.Seed
		res := sched.Run(cfg, sched.CPUBoundJobs(c.Peers))
		snap.Set("exec-avg-s/"+kind.String(), res.AvgExecTime().Seconds())
		snap.Set("makespan-s/"+kind.String(), res.Makespan.Seconds())
	}
	return nil
}
