package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
)

// metric is one named number of the benchmark. BENCHMARK.json lists
// the same names and units; TestBenchmarkJSON keeps the two in step.
type metric struct {
	name string
	unit string
	// bound (end-to-end only) is the share of the parent's median by
	// which the metric may worsen before a change counts as a
	// regression.
	bound float64
	// least (end-to-end only) marks a timing: it is reported as the
	// least over the repetitions, not the median. What disturbs a timing
	// on a shared host — a stolen vCPU, a neighbour in the cache — only
	// ever adds to it, so the fastest repetition is the one closest to
	// what the code costs.
	least bool
	// exact (per-layer only) marks a count that a deterministic kernel
	// repeats bit for bit: it must be identical between repetitions,
	// and between two commits unless the change declares a behaviour
	// change.
	exact bool
}

// The bounds on the two timings are wider than the 10 % this benchmark
// was specified with, because a bound has to lie outside the spread of
// identical code to be enforceable. On the reference box two
// repetitions inside one run agree to 3–6 %, but ten runs a few minutes
// apart spread (first to third quartile) over 3–14 % of their median,
// 23 % on sweep-overlay, and more when the host is busy: its speed
// drifts, and nothing measured inside a run removes that. README.md
// has the data.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", bound: 0.25, least: true},
	{name: "cpu_s", unit: "s", bound: 0.25, least: true},
	{name: "alloc_mb", unit: "MB", bound: 0.03},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
	{name: "setup_s", unit: "s", bound: 0.25},
}

var perLayer = []metric{
	{name: "sim.events", unit: "count", exact: true},
	{name: "sim.switches", unit: "count", exact: true},
	{name: "sim.spawns", unit: "count", exact: true},
	{name: "sim.queue_resizes", unit: "count", exact: true},
	{name: "sim.virtual_s", unit: "s", exact: true},
	{name: "sim.ns_per_event", unit: "ns"},
	{name: "sim.cpu_s", unit: "s"},
	{name: "sim.handoff_cpu_s", unit: "s"},
	{name: "sim.timer_ns", unit: "ns"},
	{name: "sim.resched_ns", unit: "ns"},
	{name: "sim.handoff_ns", unit: "ns"},

	{name: "vnet.msgs_sent", unit: "count", exact: true},
	{name: "vnet.msgs_delivered", unit: "count", exact: true},
	{name: "vnet.msgs_dropped", unit: "count", exact: true},
	{name: "vnet.retransmits", unit: "count", exact: true},
	{name: "vnet.bytes_delivered", unit: "B", exact: true},
	{name: "vnet.retransmit_ratio", unit: "ratio", exact: true},
	{name: "vnet.cpu_s", unit: "s"},

	{name: "netem.pipe_msgs", unit: "count", exact: true},
	{name: "netem.pipe_bytes", unit: "B", exact: true},
	{name: "netem.drops_loss", unit: "count", exact: true},
	{name: "netem.drops_overflow", unit: "count", exact: true},
	{name: "netem.cpu_s", unit: "s"},
	{name: "netem.pipe_ns", unit: "ns"},

	{name: "flow.started", unit: "count", exact: true},
	{name: "flow.completed", unit: "count", exact: true},
	{name: "flow.solves", unit: "count", exact: true},
	{name: "flow.solved_flows", unit: "count", exact: true},
	{name: "flow.flushes", unit: "count", exact: true},
	{name: "flow.batched", unit: "count", exact: true},
	{name: "flow.solved_per_start", unit: "ratio", exact: true},
	{name: "flow.cpu_s", unit: "s"},
	{name: "flow.churn_ns", unit: "ns"},

	{name: "bt.pieces_completed", unit: "count", exact: true},
	{name: "bt.downloads_completed", unit: "count", exact: true},
	{name: "bt.chokes", unit: "count", exact: true},
	{name: "bt.unchokes", unit: "count", exact: true},
	{name: "bt.dial_attempts", unit: "count", exact: true},
	{name: "bt.dial_failures", unit: "count", exact: true},
	{name: "bt.cpu_s", unit: "s"},

	{name: "trace.events", unit: "count", exact: true},
	{name: "trace.events_per_kernel_event", unit: "ratio", exact: true},
	{name: "trace.bytes_rendered", unit: "B", exact: true},
	{name: "trace.render_s", unit: "s"},
	{name: "trace.cpu_s", unit: "s"},
	{name: "trace.add_ns", unit: "ns"},

	{name: "obs.series", unit: "count", exact: true},
	{name: "obs.snapshot_s", unit: "s"},
	{name: "obs.cpu_s", unit: "s"},

	{name: "scenario.load_s", unit: "s"},
	{name: "scenario.assemble_s", unit: "s"},
	{name: "scenario.run_s", unit: "s"},
	{name: "scenario.cpu_s", unit: "s"},

	{name: "exp.cells", unit: "count", exact: true},
	{name: "exp.cells_failed", unit: "count", exact: true},
	{name: "exp.cells_s", unit: "s"},
	{name: "exp.sweep_dht_s", unit: "s"},
	{name: "exp.sweep_gossip_s", unit: "s"},
	{name: "exp.sweep_churn_s", unit: "s"},
	{name: "exp.cell_wall_p50_s", unit: "s"},
	{name: "exp.cell_wall_max_s", unit: "s"},
	{name: "exp.worker_utilization", unit: "ratio"},
	{name: "exp.cpu_s", unit: "s"},

	{name: "chord.avg_hops", unit: "count", exact: true},
	{name: "chord.timeouts", unit: "count", exact: true},
	{name: "chord.cpu_s", unit: "s"},
	{name: "gossip.pushes", unit: "count", exact: true},
	{name: "gossip.coverage", unit: "ratio", exact: true},
	{name: "gossip.cpu_s", unit: "s"},
	{name: "churn.arrivals", unit: "count", exact: true},
	{name: "churn.departures", unit: "count", exact: true},
	{name: "churn.cpu_s", unit: "s"},

	{name: "misc.cpu_s", unit: "s"},
	{name: "runtime.gc_cpu_s", unit: "s"},
	{name: "runtime.sched_cpu_s", unit: "s"},
	{name: "runtime.other_cpu_s", unit: "s"},
	{name: "runtime.gc_cycles", unit: "count"},

	{name: "bench.profile_cpu_s", unit: "s"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "host.loadavg1", unit: "load"},
	{name: "host.nproc", unit: "count"},
}

// e2e returns one end-to-end metric of a repetition, other than the
// set-up time, which has samples of its own.
func (r rep) e2e(name string) float64 {
	switch name {
	case "wall_s":
		return r.WallS
	case "cpu_s":
		return r.CPUS
	case "alloc_mb":
		return r.AllocMB
	case "peak_rss_mb":
		return r.PeakRSSMB
	}
	panic("bench: no end-to-end metric " + name)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// values is one metric over a set of repetitions.
func values(reps []rep, get func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = get(r)
	}
	return out
}

// workloadReport is one workload of an invocation, summarised.
type workloadReport struct {
	Name string `json:"name"`
	// Seed is the kernel seed the workload ran at, 0 when its inputs are
	// fixed and -seed does not reach it.
	Seed int64 `json:"seed"`
	// E2E is every end-to-end metric over the untraced repetitions: the
	// least of them for the timings, the median for the rest; Layer
	// (traced runs) the per-layer metrics over the traced ones: exact
	// counts as they are, timings as medians.
	E2E   map[string]float64 `json:"end_to_end"`
	Layer map[string]float64 `json:"per_layer,omitempty"`
	// Ops counts expected completions over all repetitions, OpsFailed
	// those that did not happen.
	Ops       int `json:"ops"`
	OpsFailed int `json:"ops_failed"`
	// Problems are the reasons the workload's outputs are not correct:
	// failed operations, and anything that differs between repetitions
	// that a deterministic kernel must repeat.
	Problems []string `json:"problems,omitempty"`
	Reps     []rep    `json:"reps"`
}

func (w *workloadReport) problem(format string, args ...any) {
	w.Problems = append(w.Problems, fmt.Sprintf(format, args...))
}

// split separates untraced from traced repetitions.
func split(reps []rep) (untraced, traced []rep) {
	for _, r := range reps {
		if r.Traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

// e2eValues is the reported value of every end-to-end metric over a
// set of untraced repetitions.
func e2eValues(reps []rep) map[string]float64 {
	out := make(map[string]float64, len(endToEnd))
	for _, m := range endToEnd {
		m := m
		if m.name == "setup_s" {
			var samples []float64
			for _, r := range reps {
				samples = append(samples, r.Setups...)
			}
			out[m.name] = median(samples)
			continue
		}
		vs := values(reps, func(r rep) float64 { return r.e2e(m.name) })
		if m.least && len(vs) > 0 {
			out[m.name] = slices.Min(vs)
		} else {
			out[m.name] = median(vs)
		}
	}
	return out
}

// layerValues summarises the per-layer metrics of traced repetitions
// and reports every exact count on which they disagree.
func layerValues(traced []rep) (map[string]float64, []string) {
	out := make(map[string]float64, len(perLayer))
	var differ []string
	for _, m := range perLayer {
		m := m
		vs := values(traced, func(r rep) float64 { return r.Layer[m.name] })
		if !m.exact {
			out[m.name] = median(vs)
			continue
		}
		out[m.name] = vs[0]
		for _, v := range vs[1:] {
			if v != vs[0] {
				differ = append(differ, fmt.Sprintf("%s: %v vs %v", m.name, vs[0], v))
				break
			}
		}
	}
	return out, differ
}

func summarise(name string, reps []rep, probes map[string]float64) workloadReport {
	w := workloadReport{Name: name, Reps: reps}
	untraced, traced := split(reps)
	w.E2E = e2eValues(untraced)
	for _, r := range reps {
		w.Ops += r.Ops
		w.OpsFailed += r.Failed
		for _, f := range r.Failures {
			w.problem("failed operation: %s", f)
		}
		if r.Fingerprint != reps[0].Fingerprint {
			w.problem("non-determinism: fingerprint %.16s differs from the first repetition's %.16s",
				r.Fingerprint, reps[0].Fingerprint)
		}
	}
	if len(traced) == 0 {
		return w
	}
	layer, differ := layerValues(traced)
	for _, d := range differ {
		w.problem("non-determinism: exact counter differs between repetitions: %s", d)
	}
	for k, v := range probes {
		layer[k] = v
	}
	// Median against median: the least of several untraced walls would
	// make one traced wall look slow.
	wall := func(r rep) float64 { return r.WallS }
	layer["bench.trace_overhead_pct"] = (ratio(median(values(traced, wall)), median(values(untraced, wall))) - 1) * 100
	layer["host.loadavg1"] = median(values(reps, func(r rep) float64 { return r.Load1 }))
	layer["host.nproc"] = float64(runtime.NumCPU())
	w.Layer = layer
	return w
}

// benchReport is one invocation, summarised; it is what results.json
// holds.
type benchReport struct {
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

func report(p plan, m *measured) *benchReport {
	b := &benchReport{Host: host()}
	for _, w := range p.workloads {
		sum := summarise(w.name, m.reps[w.name], m.probes)
		sum.Seed = w.job(p, false).Seed
		b.Workloads = append(b.Workloads, sum)
	}
	return b
}

// ok reports whether every workload's outputs were correct.
func (b *benchReport) ok() bool {
	for _, w := range b.Workloads {
		if len(w.Problems) > 0 {
			return false
		}
	}
	return true
}

// print writes every metric as "workload metric value unit".
func (b *benchReport) print(out io.Writer) {
	for _, w := range b.Workloads {
		untraced, _ := split(w.Reps)
		for _, m := range endToEnd {
			fmt.Fprintf(out, "%s %s %.6g %s\n", w.Name, m.name, w.E2E[m.name], m.unit)
		}
		if w.Seed == 0 {
			fmt.Fprintf(out, "%s seed fixed\n", w.Name)
		} else {
			fmt.Fprintf(out, "%s seed %d\n", w.Name, w.Seed)
		}
		fmt.Fprintf(out, "%s reps %d count\n", w.Name, len(untraced))
		fmt.Fprintf(out, "%s ops %d count\n", w.Name, w.Ops)
		fmt.Fprintf(out, "%s ops_failed %d count\n", w.Name, w.OpsFailed)
		if w.Layer == nil {
			continue
		}
		for _, m := range perLayer {
			fmt.Fprintf(out, "%s %s %.6g %s\n", w.Name, m.name, w.Layer[m.name], m.unit)
		}
	}
}

// traceFile is what trace-<workload>.json holds: every span of every
// traced repetition, and the per-layer numbers read at the same
// boundaries.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostInfo           `json:"host"`
	Layer    map[string]float64 `json:"per_layer"`
	// Spans[i] are the spans of the i-th traced repetition.
	Spans [][]span `json:"spans"`
}

// write stores results.json and, for a traced run, one trace file per
// workload. Spans live in the trace files only.
func (b *benchReport) write(dir string) error {
	for i := range b.Workloads {
		w := &b.Workloads[i]
		if w.Layer != nil {
			tf := traceFile{Workload: w.Name, Seed: w.Seed, Host: b.Host, Layer: w.Layer}
			for _, r := range w.Reps {
				if r.Traced {
					tf.Spans = append(tf.Spans, r.Spans)
				}
			}
			if err := writeJSON(dir, "trace-"+w.Name+".json", tf); err != nil {
				return err
			}
		}
		for j := range w.Reps {
			w.Reps[j].Spans = nil
		}
	}
	return writeJSON(dir, "results.json", b)
}

// value is one metric of the contract's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result line for one workload: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (b *benchReport) result(name string, traced bool) result {
	for _, w := range b.Workloads {
		if w.Name != name {
			continue
		}
		res := result{Correct: len(w.Problems) == 0, Attempted: w.Ops, Failed: w.OpsFailed, Metrics: map[string]value{}}
		defs, vals := endToEnd, w.E2E
		if traced {
			defs, vals = perLayer, w.Layer
		}
		for _, m := range defs {
			res.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
		}
		return res
	}
	panic("bench: no workload " + name)
}

// printAA is the same-code check: the repetitions of every workload,
// alternately dealt into sets A and B, are two sets of runs of one
// binary. Their values must agree within each metric's bound and their
// exact counters must be identical; if they do not, the measurement is
// too noisy to judge a change with.
func (b *benchReport) printAA(out io.Writer) bool {
	ok := true
	deal := func(reps []rep) (a, c []rep) {
		for i, r := range reps {
			if i%2 == 0 {
				a = append(a, r)
			} else {
				c = append(c, r)
			}
		}
		return a, c
	}
	fmt.Fprintln(out, "A/A: workload metric set_A set_B diff bound verdict")
	for _, w := range b.Workloads {
		untraced, traced := split(w.Reps)
		ua, ub := deal(untraced)
		ma, mb := e2eValues(ua), e2eValues(ub)
		for _, m := range endToEnd {
			diff := ratio(mb[m.name]-ma[m.name], ma[m.name])
			verdict := "ok"
			if math.Abs(diff) > m.bound {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Fprintf(out, "A/A: %s %s %.6g %.6g %+.2f%% %.0f%% %s\n",
				w.Name, m.name, ma[m.name], mb[m.name], diff*100, m.bound*100, verdict)
		}
		if len(traced) < 2 {
			continue
		}
		ta, tb := deal(traced)
		la, _ := layerValues(ta)
		lb, _ := layerValues(tb)
		differing := 0
		for _, m := range perLayer {
			if m.exact && la[m.name] != lb[m.name] {
				fmt.Fprintf(out, "A/A: %s %s %v %v DIFFERS\n", w.Name, m.name, la[m.name], lb[m.name])
				differing++
				ok = false
			}
		}
		fmt.Fprintf(out, "A/A: %s exact counters differing: %d\n", w.Name, differing)
	}
	return ok
}
