package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Workload kinds: how a job's Data is interpreted and which entry
// points of the program the repetition drives.
const (
	kindScenario = "scenario" // Data is one scenario spec: scenario.Load + scenario.Run
	kindSweep    = "sweep"    // Data is a sweepSpec: exp.Grid + exp.RunSweepProgress
	kindCorpus   = "corpus"   // Data is a corpusSpec: corpus scenarios, traced, digested
	kindProbes   = "probes"   // no Data: the layer probes (traced run only)
)

// job is one repetition of one workload, handed to a fresh child
// process as JSON on its standard input.
type job struct {
	Workload string          `json:"workload"`
	Kind     string          `json:"kind"`
	Data     json.RawMessage `json:"data,omitempty"`
	// Seed is the kernel seed of a seeded workload's repetition. 0 means
	// the workload's inputs are fixed: its file and the corpus carry
	// their own seeds.
	Seed int64 `json:"seed,omitempty"`
	// SetupOnly stops the child where its first timed call would begin:
	// a sample of the set-up time and nothing else.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Traced turns on the harness's own instrumentation: a CPU profile
	// and, where the entry point takes one, an obs registry.
	Traced bool `json:"traced,omitempty"`
	// Golden is the path of the golden-digest file of the tree under
	// test; corpus jobs compare against it.
	Golden string `json:"golden,omitempty"`
	// StartNs is the parent's clock just before it started the child,
	// so set-up time includes process start and runtime initialisation.
	StartNs int64 `json:"start_ns"`
}

// repResult is what one repetition reports back on standard output.
type repResult struct {
	WallS   float64 `json:"wall_s"`
	SetupS  float64 `json:"setup_s"`
	AllocMB float64 `json:"alloc_mb"`
	// Ops counts expected completions (peers, cells, scenarios), Failed
	// those that did not happen; Failures says which.
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// Fingerprint pins the run's observable outcome; repetitions of
	// one seed must agree on it.
	Fingerprint string `json:"fingerprint"`
	// Layer and Spans are filled by traced repetitions only.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// sweepSpec is the sweep workload as data: grids in bench-owned JSON,
// because exp.Grid carries link classes and model kinds as Go values.
type sweepSpec struct {
	Workers int        `json:"workers"`
	Grids   []gridSpec `json:"grids"`
}

type gridSpec struct {
	Experiment string    `json:"experiment"`
	Peers      []int     `json:"peers"`
	Churn      []float64 `json:"churn,omitempty"`
	Classes    []string  `json:"classes,omitempty"`
	Seeds      []int64   `json:"seeds"`
	FileSize   int       `json:"file_size,omitempty"`
	Lookups    int       `json:"lookups,omitempty"`
	Fanout     int       `json:"fanout,omitempty"`
	Horizon    string    `json:"horizon,omitempty"`
}

// corpusSpec is the golden-trace workload as data: which committed
// scenarios one pass runs, and how many passes make a repetition.
type corpusSpec struct {
	Passes    int      `json:"passes"`
	Scenarios []string `json:"scenarios"`
}

// grid resolves the data form into the program's Grid.
func (g gridSpec) grid() (exp.Grid, error) {
	out := exp.Grid{
		Experiment: exp.Experiment(g.Experiment),
		Peers:      g.Peers,
		Churn:      g.Churn,
		Seeds:      g.Seeds,
		FileSize:   g.FileSize,
		Lookups:    g.Lookups,
		Fanout:     g.Fanout,
	}
	for _, name := range g.Classes {
		c, ok := topo.ClassByName(name)
		if !ok {
			return exp.Grid{}, fmt.Errorf("grid %s: unknown class %q", g.Experiment, name)
		}
		out.Classes = append(out.Classes, c)
	}
	if g.Horizon != "" {
		h, err := time.ParseDuration(g.Horizon)
		if err != nil {
			return exp.Grid{}, fmt.Errorf("grid %s: horizon: %w", g.Experiment, err)
		}
		out.Horizon = h
	}
	return out, nil
}

// childMain runs one job read from standard input and writes its
// repResult to standard output.
func childMain() error {
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		return fmt.Errorf("reading job: %w", err)
	}
	res, err := runJob(j)
	if err != nil {
		return fmt.Errorf("%s: %w", j.Workload, err)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// run carries the state one repetition accumulates.
type run struct {
	job    job
	tr     *tracer
	res    *repResult
	layer  layerCounts
	finger bytes.Buffer
	// timed is the wall and allocation spent inside timed entry-point
	// calls so far; setupEnd is when set-up was over and the first of
	// them was about to begin.
	timedWall  time.Duration
	timedAlloc uint64
	setupEnd   time.Time
}

// ready ends the repetition's set-up. It reports whether the job
// stops here, as a set-up sample does.
func (r *run) ready() bool {
	r.setupEnd = time.Now()
	return r.job.SetupOnly
}

// timed runs fn as a timed entry-point call: its wall time and its
// allocation count towards the repetition's end-to-end numbers.
func (r *run) timed(name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := r.tr.do(name, fn)
	r.timedWall += time.Since(start)
	runtime.ReadMemStats(&after)
	r.timedAlloc += after.TotalAlloc - before.TotalAlloc
	return err
}

// fail counts n failed operations under one description.
func (r *run) fail(n int, format string, args ...any) {
	r.res.Failed += n
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

func runJob(j job) (*repResult, error) {
	r := &run{job: j, tr: newTracer(j.Workload), res: &repResult{}, layer: layerCounts{}}
	var prof bytes.Buffer
	if j.Traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var err error
	switch j.Kind {
	case kindScenario:
		err = r.scenarioJob()
	case kindSweep:
		err = r.sweepJob()
	case kindCorpus:
		err = r.corpusJob()
	case kindProbes:
		runProbes(r.layer)
		r.res.Layer = r.layer
		return r.res, nil
	default:
		err = fmt.Errorf("unknown workload kind %q", j.Kind)
	}
	if j.Traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	r.res.WallS = r.timedWall.Seconds()
	r.res.AllocMB = float64(r.timedAlloc) / 1e6
	r.res.SetupS = r.setupEnd.Sub(time.Unix(0, j.StartNs)).Seconds()
	sum := sha256.Sum256(r.finger.Bytes())
	r.res.Fingerprint = hex.EncodeToString(sum[:])
	if j.Traced {
		buckets, err := profileBuckets(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		r.layer.finish(r.tr)
		for bucket, seconds := range buckets {
			r.layer[bucket] = seconds
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.layer["runtime.gc_cycles"] = float64(ms.NumGC)
		r.res.Layer = r.layer
		r.res.Spans = r.tr.spans
	}
	return r.res, nil
}

// loadSpec parses and validates a scenario spec the way `p2plab run
// -spec` does, under a span.
func (r *run) loadSpec(data []byte) (*scenario.Spec, error) {
	var sp *scenario.Spec
	err := r.tr.do("scenario.load", func() error {
		var err error
		if sp, err = scenario.Load(data); err != nil {
			return err
		}
		return sp.WithDefaults().Validate()
	})
	return sp, err
}

// assembleOnly runs the spec with a 1 ns horizon: topology, network,
// hosts and workload are built and torn down, nothing is emulated. It
// is part of set-up, so work a later change moves into assembly shows
// in setup_s.
func (r *run) assembleOnly(sp *scenario.Spec) error {
	short := *sp
	short.Horizon = scenario.Duration(time.Nanosecond)
	return r.tr.do("scenario.assemble", func() error {
		_, err := scenario.Run(&short, scenario.Options{Seed: r.job.Seed})
		return err
	})
}

// outcome is the part of a finished scenario run the fingerprint pins.
func outcome(res *scenario.Result) string {
	return fmt.Sprintf("kernel %+v net %+v ended %v done %d/%d\n",
		res.Kernel, res.Net, res.EndedAt, res.Done, res.Total)
}

func (r *run) scenarioJob() error {
	sp, err := r.loadSpec(r.job.Data)
	if err != nil {
		return err
	}
	if err := r.assembleOnly(sp); err != nil {
		return err
	}
	if r.ready() {
		return nil
	}
	opt := scenario.Options{Seed: r.job.Seed}
	if r.job.Traced {
		opt.Obs = obs.NewRegistry()
	}
	var res *scenario.Result
	err = r.timed("scenario.run", func() error {
		var err error
		res, err = scenario.Run(sp, opt)
		return err
	})
	if err != nil {
		return err
	}
	// One operation per client that must finish inside the horizon.
	r.res.Ops = res.Total
	if res.Done < res.Total {
		r.fail(res.Total-res.Done, "%s: %d of %d clients unfinished at the horizon", sp.Name, res.Total-res.Done, res.Total)
	}
	r.finger.WriteString(outcome(res))
	if r.job.Traced {
		snap, err := r.snapshotObs(opt.Obs)
		if err != nil {
			return err
		}
		r.layer.addScenario(res)
		r.layer.addObs(snap)
	}
	return nil
}

// snapshotObs snapshots the registry under a span; the Prometheus
// rendering is what `p2plab serve` pays per scrape.
func (r *run) snapshotObs(reg *obs.Registry) (*obs.Snapshot, error) {
	var snap *obs.Snapshot
	err := r.tr.do("obs.snapshot", func() error {
		snap = reg.Snapshot()
		return snap.WriteProm(io.Discard)
	})
	return snap, err
}

func (r *run) corpusJob() error {
	var cs corpusSpec
	if err := json.Unmarshal(r.job.Data, &cs); err != nil {
		return fmt.Errorf("corpus spec: %w", err)
	}
	if cs.Passes < 1 || len(cs.Scenarios) == 0 {
		return fmt.Errorf("corpus spec: %d passes over %d scenarios", cs.Passes, len(cs.Scenarios))
	}
	specs := make([]scenario.Spec, len(cs.Scenarios))
	for i, name := range cs.Scenarios {
		sp, ok := scenario.ByName(name)
		if !ok {
			return fmt.Errorf("corpus spec: unknown scenario %q", name)
		}
		specs[i] = sp
	}
	// The committed digests pin every scenario at its own seed.
	var golden map[string]string
	err := r.tr.do("golden.load", func() error {
		data, err := os.ReadFile(r.job.Golden)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &golden)
	})
	if err != nil {
		return fmt.Errorf("golden digests: %w", err)
	}
	for i := range specs {
		if err := r.assembleOnly(&specs[i]); err != nil {
			return err
		}
	}
	if r.ready() {
		return nil
	}
	for pass := 0; pass < cs.Passes; pass++ {
		for i := range specs {
			sp := &specs[i]
			digest, err := r.goldenRun(sp)
			if err != nil {
				return err
			}
			r.res.Ops++
			if digest != golden[sp.Name] {
				r.fail(1, "%s: pass %d: trace digest %.16s differs from the golden %.16s", sp.Name, pass, digest, golden[sp.Name])
			}
			if pass == 0 {
				fmt.Fprintf(&r.finger, "%s %s\n", sp.Name, digest)
			}
		}
	}
	return nil
}

// goldenRun is one scenario run with full tracing and a registry
// attached, rendered and digested exactly as traceDigest in
// internal/scenario/golden_test.go does.
func (r *run) goldenRun(sp *scenario.Spec) (string, error) {
	var digest string
	err := r.timed("corpus."+sp.Name, func() error {
		lg := trace.New(0)
		reg := obs.NewRegistry()
		var res *scenario.Result
		err := r.tr.do("scenario.run", func() error {
			var err error
			res, err = scenario.Run(sp, scenario.Options{Trace: lg, Obs: reg})
			return err
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := r.tr.do("trace.render", func() error { return lg.Render(&buf) }); err != nil {
			return err
		}
		rendered := buf.Len()
		buf.WriteString(outcome(res))
		sum := sha256.Sum256(buf.Bytes())
		digest = hex.EncodeToString(sum[:])
		snap, err := r.snapshotObs(reg)
		if err != nil {
			return err
		}
		if r.job.Traced {
			r.layer.addScenario(res)
			r.layer.addObs(snap)
			r.layer.addTrace(lg, rendered)
		}
		return nil
	})
	return digest, err
}

func (r *run) sweepJob() error {
	var ss sweepSpec
	if err := json.Unmarshal(r.job.Data, &ss); err != nil {
		return fmt.Errorf("sweep spec: %w", err)
	}
	if ss.Workers < 1 || len(ss.Grids) == 0 {
		return fmt.Errorf("sweep spec: %d workers, %d grids", ss.Workers, len(ss.Grids))
	}
	grids := make([]exp.Grid, len(ss.Grids))
	for i, gs := range ss.Grids {
		g, err := gs.grid()
		if err != nil {
			return err
		}
		// Expansion is set-up: a malformed grid fails here, before
		// anything is timed.
		err = r.tr.do("exp.cells", func() error {
			_, err := g.Cells()
			return err
		})
		if err != nil {
			return err
		}
		grids[i] = g
	}
	if r.ready() {
		return nil
	}
	var walls []float64
	for _, g := range grids {
		g := g
		var sweep *exp.SweepResult
		err := r.timed("exp.sweep_"+string(g.Experiment), func() error {
			var err error
			sweep, err = exp.RunSweepProgress(g, ss.Workers, func(_, _ int, c exp.CellResult) {
				r.tr.ended("cell "+c.Cell.String(), c.Wall)
			})
			return err
		})
		if err != nil {
			return err
		}
		var cellWall time.Duration
		for _, c := range sweep.Cells {
			r.res.Ops++
			r.checkCell(c)
			walls = append(walls, c.Wall.Seconds())
			cellWall += c.Wall
			r.layer.addCell(c)
		}
		r.layer["_exp.busy_s"] += cellWall.Seconds()
		r.layer["_exp.capacity_s"] += float64(sweep.Workers) * sweep.Wall.Seconds()
	}
	if len(walls) > 0 {
		sort.Float64s(walls)
		r.layer["exp.cell_wall_p50_s"] = median(walls)
		r.layer["exp.cell_wall_max_s"] = walls[len(walls)-1]
	}
	return nil
}

// checkCell counts a sweep cell as failed when it returned an error
// or, where its family reports one, fell short of full coverage or a
// full done-fraction. Its snapshot goes into the fingerprint.
func (r *run) checkCell(c exp.CellResult) {
	if c.Err != nil {
		r.fail(1, "%s: %v", c.Cell, c.Err)
		return
	}
	for _, key := range []string{"coverage", "done-fraction"} {
		if v, ok := c.Snapshot.Values[key]; ok && v < 1 {
			r.fail(1, "%s: %s %g below 1", c.Cell, key, v)
			break
		}
	}
	fmt.Fprintf(&r.finger, "%s", c.Cell)
	for _, k := range sortedKeys(c.Snapshot.Values) {
		fmt.Fprintf(&r.finger, " %s=%v", k, c.Snapshot.Values[k])
	}
	for _, k := range sortedKeys(c.Snapshot.Counters) {
		fmt.Fprintf(&r.finger, " %s=%d", k, c.Snapshot.Counters[k])
	}
	r.finger.WriteByte('\n')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
