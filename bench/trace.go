package main

import (
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// span is one call the harness made into the program: where it
// started and ended on the repetition's own clock, and the span that
// was open when it began. Spans are recorded from the benchmark's own
// files only; nothing inside the program knows about them.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps the repetition's spans in memory; the parent process
// writes them out when the benchmark ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // ids of the spans in progress, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Workload: t.workload,
		Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	return err
}

// ended records a span that finished just now and took wall — a sweep
// cell, reported by the progress callback. exp serialises the
// callbacks, and the goroutine that opened the enclosing span is
// blocked inside the sweep meanwhile, so no lock is needed.
func (t *tracer) ended(name string, wall time.Duration) {
	end := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Workload: t.workload,
		Name: name, StartNs: end - wall.Nanoseconds(), EndNs: end})
}

// total sums the duration of every span with the given name, in
// seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// layerCounts accumulates the per-layer metrics of one traced
// repetition, keyed by metric name. Keys starting with "_" are
// scratch sums that finish folds into ratios and means.
type layerCounts map[string]float64

// addScenario takes the counters a finished scenario run returns.
func (l layerCounts) addScenario(res *scenario.Result) {
	l["sim.events"] += float64(res.Kernel.Events)
	l["sim.switches"] += float64(res.Kernel.Switches)
	l["sim.spawns"] += float64(res.Kernel.Spawns)
	l["sim.virtual_s"] += res.EndedAt.Seconds()
	l["vnet.msgs_sent"] += float64(res.Net.MessagesSent)
	l["vnet.msgs_delivered"] += float64(res.Net.MessagesDelivered)
	l["vnet.msgs_dropped"] += float64(res.Net.MessagesDropped)
	l["vnet.retransmits"] += float64(res.Net.Retransmits)
	l["vnet.bytes_delivered"] += float64(res.Net.BytesDelivered)
	l["churn.arrivals"] += float64(res.Arrivals)
	l["churn.departures"] += float64(res.Departures)
	switch res.Spec.Workload.Kind {
	case scenario.WorkloadDHT:
		l["_chord.hops"] += res.AvgHops
		l["_chord.runs"]++
		l["chord.timeouts"] += float64(res.Snapshot.Counters["timeouts"])
	case scenario.WorkloadGossip:
		l["_gossip.coverage"] += res.Coverage
		l["_gossip.runs"]++
		l["gossip.pushes"] += float64(res.Snapshot.Counters["pushes"])
	}
}

// obsCounters maps the registry families the layers register to the
// per-layer metric each feeds.
var obsCounters = map[string]string{
	"p2plab_sim_queue_resizes_total":      "sim.queue_resizes",
	"p2plab_netem_messages_total":         "netem.pipe_msgs",
	"p2plab_netem_bytes_total":            "netem.pipe_bytes",
	"p2plab_netem_dropped_loss_total":     "netem.drops_loss",
	"p2plab_netem_dropped_overflow_total": "netem.drops_overflow",
	"p2plab_flow_started_total":           "flow.started",
	"p2plab_flow_completed_total":         "flow.completed",
	"p2plab_flow_solves_total":            "flow.solves",
	"p2plab_flow_solved_flows_total":      "flow.solved_flows",
	"p2plab_flow_flushes_total":           "flow.flushes",
	"p2plab_flow_batched_total":           "flow.batched",
	"p2plab_bt_piece_completions_total":   "bt.pieces_completed",
	"p2plab_bt_downloads_completed_total": "bt.downloads_completed",
	"p2plab_bt_chokes_total":              "bt.chokes",
	"p2plab_bt_unchokes_total":            "bt.unchokes",
	"p2plab_bt_dial_attempts_total":       "bt.dial_attempts",
	"p2plab_bt_dial_failures_total":       "bt.dial_failures",
}

// addObs takes the exact counters of a registry snapshot made after
// the run it was attached to.
func (l layerCounts) addObs(snap *obs.Snapshot) {
	for _, f := range snap.Families {
		l["obs.series"] += float64(len(f.Series))
		if metric, ok := obsCounters[f.Name]; ok {
			l[metric] += snap.Total(f.Name)
		}
	}
}

func (l layerCounts) addTrace(lg *trace.Log, rendered int) {
	l["trace.events"] += float64(lg.Len())
	l["trace.bytes_rendered"] += float64(rendered)
}

// addCell takes what a sweep cell's snapshot carries; the dht and
// gossip families report no kernel or network counters.
func (l layerCounts) addCell(c exp.CellResult) {
	l["exp.cells"]++
	if c.Err != nil {
		l["exp.cells_failed"]++
		return
	}
	s := c.Snapshot
	l["sim.events"] += float64(s.Counters["kernel-events"])
	l["sim.switches"] += float64(s.Counters["kernel-switches"])
	l["sim.spawns"] += float64(s.Counters["kernel-spawns"])
	l["vnet.msgs_sent"] += float64(s.Counters["net-sent"])
	l["vnet.msgs_delivered"] += float64(s.Counters["net-delivered"])
	l["vnet.msgs_dropped"] += float64(s.Counters["net-dropped"])
	l["vnet.retransmits"] += float64(s.Counters["net-retransmits"])
	l["vnet.bytes_delivered"] += float64(s.Counters["net-bytes"])
	l["churn.arrivals"] += float64(s.Counters["arrivals"])
	l["churn.departures"] += float64(s.Counters["departures"])
	l["chord.timeouts"] += float64(s.Counters["timeouts"])
	l["gossip.pushes"] += float64(s.Counters["pushes"])
	if v, ok := s.Values["avg-hops"]; ok {
		l["_chord.hops"] += v
		l["_chord.runs"]++
	}
	if v, ok := s.Values["coverage"]; ok {
		l["_gossip.coverage"] += v
		l["_gossip.runs"]++
	}
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish derives the ratios and span totals once the repetition is
// over, and drops the scratch sums.
func (l layerCounts) finish(t *tracer) {
	l["scenario.load_s"] = t.total("scenario.load")
	l["scenario.assemble_s"] = t.total("scenario.assemble")
	l["scenario.run_s"] = t.total("scenario.run")
	l["trace.render_s"] = t.total("trace.render")
	l["obs.snapshot_s"] = t.total("obs.snapshot")
	l["exp.cells_s"] = t.total("exp.cells")
	for _, family := range []string{"dht", "gossip", "churn"} {
		l["exp.sweep_"+family+"_s"] = t.total("exp.sweep_" + family)
	}
	l["sim.ns_per_event"] = ratio(l["scenario.run_s"]*1e9, l["sim.events"])
	l["vnet.retransmit_ratio"] = ratio(l["vnet.retransmits"], l["vnet.msgs_sent"])
	l["flow.solved_per_start"] = ratio(l["flow.solved_flows"], l["flow.started"])
	l["trace.events_per_kernel_event"] = ratio(l["trace.events"], l["sim.events"])
	l["exp.worker_utilization"] = ratio(l["_exp.busy_s"], l["_exp.capacity_s"])
	l["chord.avg_hops"] = ratio(l["_chord.hops"], l["_chord.runs"])
	l["gossip.coverage"] = ratio(l["_gossip.coverage"], l["_gossip.runs"])
	for k := range l {
		if strings.HasPrefix(k, "_") {
			delete(l, k)
		}
	}
}
