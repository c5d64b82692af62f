// Command p2plab regenerates any table or figure of the paper and
// writes gnuplot-compatible .dat files plus a text summary, runs
// parameter-grid sweeps across the experiment families, and runs named
// scenarios from the committed corpus.
//
// Usage:
//
//	p2plab -fig 8 -out results/
//	p2plab -fig 9 -scale 10          # scaled-down folding sweep
//	p2plab -fig all -out results/
//	p2plab sweep -exp dht -peers 8,16,32 -class lan,dsl -seeds 1,2,3
//	p2plab sweep -exp swarm -peers 8,16 -churn 0,0.3 -workers 4 -out results/
//	p2plab sweep -exp scenario -scenario flash-crowd,churn-storm -seeds 1,2
//	p2plab sweep -exp snapshot-sync -pieces 1048576,2097152 -conncap 3,5 -rate 0,65536
//	p2plab list                      # the scenario catalogue
//	p2plab run transatlantic-partition-heal
//	p2plab run -spec my-scenario.json -trace 40
//	p2plab serve -addr 127.0.0.1:8080  # HTTP experiment service
//
// Figure ids: 1, 2, 3, bind, 6, 7, 8, 9, 10, 11, dht, churn, gossip.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topo"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			if err := sweepMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "run":
			if err := runMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "list":
			if err := listMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "serve":
			if err := serveMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	fig := flag.String("fig", "all", "figure to regenerate (1,2,3,bind,6,7,8,9,10,11,all)")
	out := flag.String("out", "results", "output directory for .dat and .txt files")
	scale := flag.Int("scale", 1, "divide swarm experiment size by this factor")
	seed := flag.Int64("seed", 1, "deterministic random seed")
	modelName := flag.String("model", "pipe", "link model for swarm experiments (pipe, flow)")
	rules := flag.Int("rules", 0, "pad the network firewall with this many filler rules (swarm figures; 0 = no firewall)")
	classifierName := flag.String("classifier", "linear", "firewall packet classifier (linear, indexed; swarm figures with -rules)")
	flag.Parse()

	model, err := netem.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	classifier, err := netem.ParseClassifier(*classifierName)
	if err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = []string{"1", "2", "3", "bind", "6", "7", "8", "9", "10", "11", "dht", "churn", "gossip"}
	}
	if err := validateFirewallFlags(ids, *rules, classifier); err != nil {
		fatal(err)
	}
	if err := validateSeed(ids, *seed); err != nil {
		fatal(err)
	}
	f := figures{out: *out, scale: *scale, seed: *seed, model: model, rules: *rules, classifier: classifier}
	for _, id := range ids {
		start := time.Now()
		fmt.Printf("== figure %s ==\n", id)
		if err := f.run(id); err != nil {
			fatal(fmt.Errorf("figure %s: %w", id, err))
		}
		fmt.Printf("   done in %v\n", time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p2plab:", err)
	os.Exit(1)
}

// figVariant suffixes a figure id with the firewall parameters so a
// variant run does not silently overwrite the baseline artifacts with
// indistinguishable files; the note is appended to the plot title.
func figVariant(id string, rules int, classifier netem.Classifier) (variant, note string) {
	variant = id
	if rules > 0 {
		variant += fmt.Sprintf("-rules%d", rules)
		note += fmt.Sprintf(", %d firewall rules", rules)
	}
	if classifier != netem.ClassifierLinear {
		variant += "-" + classifier.String()
		note += ", " + classifier.String() + " classifier"
	}
	return variant, note
}

// validateFirewallFlags rejects -rules/-classifier on figure sets they
// cannot affect — silently running without the requested firewall
// would misrepresent the output, the same misuse the sweep axes
// reject.
func validateFirewallFlags(ids []string, rules int, classifier netem.Classifier) error {
	rulesApply := false
	for _, id := range ids {
		switch id {
		case "8", "9", "10", "11", "churn":
			rulesApply = true
		}
	}
	if rules > 0 && !rulesApply {
		return fmt.Errorf("-rules applies only to the swarm figures (8, 9, 10, 11, churn)")
	}
	if classifier != netem.ClassifierLinear && rules == 0 {
		// Fig 6 sweeps its own rule counts under both classifiers.
		return fmt.Errorf("-classifier needs a swarm figure with -rules > 0")
	}
	return nil
}

// validateSeed rejects -seed 0 before any figure runs when the set
// holds a figure whose runs compile to a scenario spec: a spec reads
// seed 0 as seed 1, so Figs 8–11 would silently be seed 1's and the
// grid-backed figures would fail after every figure before them had
// run. The scheduler and kernel-seeded figures take 0 as given.
func validateSeed(ids []string, seed int64) error {
	if seed != 0 {
		return nil
	}
	for _, id := range ids {
		switch id {
		case "6", "8", "9", "10", "11", "dht", "churn", "gossip":
			return fmt.Errorf("figure %s needs a nonzero -seed (a scenario spec reads seed 0 as seed 1)", id)
		}
	}
	return nil
}

// sweep runs a figure's grid and returns its cells in grid order; a
// failed cell is the figure's error.
func sweep(g exp.Grid) ([]exp.CellResult, error) {
	res, err := exp.RunSweep(g, 0)
	if err == nil && res.Failed > 0 {
		err = res.Errs()[0]
	}
	if err != nil {
		return nil, err
	}
	return res.Cells, nil
}

// curve plots one snapshot value of each cell against the figure's
// x-axis, xs[i] being cell i's.
func curve(name string, xs []int, cells []exp.CellResult, y func(*metrics.Snapshot) float64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, c := range cells {
		s.Add(float64(xs[i]), y(c.Snapshot))
	}
	return s
}

// millis and seconds turn a snapshot's float back into the whole-
// nanosecond duration it was computed from.
func millis(ms float64) time.Duration { return time.Duration(math.Round(ms * 1e6)) }

func seconds(s float64) time.Duration { return time.Duration(math.Round(s * 1e9)) }

// seriesNames extracts curve titles for plot scripts.
func seriesNames(series []*metrics.Series) []string {
	names := make([]string, len(series))
	for i, s := range series {
		names[i] = s.Name
	}
	return names
}

func writeDat(dir, name string, series ...*metrics.Series) error {
	return writeFile(filepath.Join(dir, name), func(w io.Writer) error {
		return metrics.WriteDat(w, series...)
	})
}

// writeFile creates path, fills it with write and closes it, returning
// the first error from the write or the Close (some file systems report
// a failed write only on Close).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writePlot emits a gnuplot script that renders a .dat file the way the
// paper's figures look (one curve per index block).
func writePlot(dir, figID, datName, title, xlabel, ylabel string, curves []string, withLines bool) error {
	var b strings.Builder
	fmt.Fprintf(&b, "set title %q\n", title)
	fmt.Fprintf(&b, "set xlabel %q\nset ylabel %q\n", xlabel, ylabel)
	fmt.Fprintf(&b, "set key bottom right\nset grid\n")
	fmt.Fprintf(&b, "set terminal pngcairo size 900,600\nset output %q\n", "fig"+figID+".png")
	style := "points pt 7 ps 0.3"
	if withLines {
		style = "lines lw 2"
	}
	fmt.Fprint(&b, "plot ")
	for i, c := range curves {
		if i > 0 {
			fmt.Fprint(&b, ", \\\n     ")
		}
		fmt.Fprintf(&b, "%q index %d with %s title %q", datName, i, style, c)
	}
	fmt.Fprintln(&b)
	return os.WriteFile(filepath.Join(dir, "fig"+figID+".gp"), []byte(b.String()), 0o644)
}

// figures is one invocation's flags plus what its figure runs share.
type figures struct {
	out        string
	scale      int
	seed       int64
	model      netem.ModelKind
	rules      int
	classifier netem.Classifier

	fig10 *scenario.Result // Figs 10 and 11 are two views of this one run
}

// swarmSpec applies the command's flags to a swarm figure's spec.
func (f *figures) swarmSpec(sp scenario.Spec) scenario.Spec {
	sp = exp.ScaleSpec(sp, f.scale)
	sp.Seed = f.seed
	sp.Model = f.model.String()
	sp.FillerRules = f.rules
	if f.rules > 0 {
		sp.Classifier = f.classifier.String()
	}
	return sp
}

// runSwarm runs a swarm figure's spec under the command's flags and
// prints its summary.
func (f *figures) runSwarm(sp scenario.Spec) (*scenario.Result, error) {
	sp = f.swarmSpec(sp)
	res, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		return nil, err
	}
	reportScenario(res)
	return res, nil
}

func (f *figures) run(id string) error {
	switch id {
	case "1":
		cells, err := sweep(exp.Grid{Experiment: exp.ExpSched, Peers: exp.Fig1Counts, Seeds: []int64{f.seed}})
		if err != nil {
			return err
		}
		var series []*metrics.Series
		for _, kind := range sched.Kinds {
			series = append(series, curve(kind.String(), exp.Fig1Counts, cells, func(s *metrics.Snapshot) float64 {
				return s.Values["exec-avg-s/"+kind.String()]
			}))
		}
		if err := writePlot(f.out, "1", "fig1.dat",
			"Average per-process execution time (CPU-bound)",
			"number of concurrent processes", "seconds",
			seriesNames(series), true); err != nil {
			return err
		}
		return writeDat(f.out, "fig1.dat", series...)
	case "2":
		series := exp.Fig2(nil, f.seed)
		if err := writePlot(f.out, "2", "fig2.dat",
			"Average per-process execution time (memory-bound)",
			"number of concurrent processes", "seconds",
			seriesNames(series), true); err != nil {
			return err
		}
		return writeDat(f.out, "fig2.dat", series...)
	case "3":
		series := exp.Fig3(100, f.seed)
		if err := writePlot(f.out, "3", "fig3.dat",
			"CDF of completion times, 100 concurrent 5s processes",
			"process execution time (s)", "F(x)",
			seriesNames(series), true); err != nil {
			return err
		}
		return writeDat(f.out, "fig3.dat", series...)
	case "bind":
		res, err := exp.BindOverhead()
		if err != nil {
			return err
		}
		fmt.Printf("   connect/close cycle: %v plain, %v intercepted (+%v)\n",
			res.Plain, res.Intercepted, res.Overhead())
		return os.WriteFile(filepath.Join(f.out, "bind.txt"),
			[]byte(fmt.Sprintf("plain %v\nintercepted %v\noverhead %v\n",
				res.Plain, res.Intercepted, res.Overhead())), 0o644)
	case "6":
		// One ping grid draws Fig 6 and its indexed ablation; the
		// rules = 0 cell, an empty table, is the base of both curves.
		classifiers := []netem.Classifier{netem.ClassifierLinear, netem.ClassifierIndexed}
		cells, err := sweep(exp.Grid{Experiment: exp.ExpPing, Rules: exp.Fig6Counts,
			Classifiers: classifiers, Seeds: []int64{f.seed}})
		if err != nil {
			return err
		}
		var visited []*metrics.Series
		for _, cf := range classifiers {
			var own []exp.CellResult
			for _, c := range cells {
				if c.Cell.Rules == 0 || c.Cell.Classifier == cf {
					own = append(own, c)
				}
			}
			if cf == netem.ClassifierLinear {
				for _, c := range own {
					v := c.Snapshot.Values
					fmt.Printf("   %6d rules: rtt avg %v (min %v, max %v)\n", c.Cell.Rules,
						millis(v["rtt-avg-ms"]), millis(v["rtt-min-ms"]), millis(v["rtt-max-ms"]))
				}
			}
			// The paper plots "round trip time (avg, min, max)".
			var rtt []*metrics.Series
			for _, stat := range []string{"avg", "min", "max"} {
				rtt = append(rtt, curve("rtt-"+stat, exp.Fig6Counts, own, func(s *metrics.Snapshot) float64 {
					return s.Values["rtt-"+stat+"-ms"]
				}))
			}
			vid, note := figVariant("6", 0, cf)
			if err := writePlot(f.out, vid, "fig"+vid+".dat",
				"Round-trip time vs number of firewall rules"+note,
				"number of rules to evaluate", "time (ms)",
				seriesNames(rtt), true); err != nil {
				return err
			}
			if err := writeDat(f.out, "fig"+vid+".dat", rtt...); err != nil {
				return err
			}
			visited = append(visited, curve(cf.String()+"-visited", exp.Fig6Counts, own, func(s *metrics.Snapshot) float64 {
				return float64(s.Counters["fw-visited"]) / float64(s.Counters["fw-evals"])
			}))
		}
		return writeDat(f.out, "fig6_indexed.dat", visited...)
	case "7":
		res, err := exp.Fig7(14, f.seed)
		if err != nil {
			return err
		}
		fmt.Printf("   measured RTT %v (model %v, overhead %v) over %d hosts\n",
			res.RTT, res.ModelRTT, res.Overhead, res.Hosts)
		return os.WriteFile(filepath.Join(f.out, "fig7.txt"),
			[]byte(fmt.Sprintf("rtt %v\nmodel %v\noverhead %v\nhosts %d\n",
				res.RTT, res.ModelRTT, res.Overhead, res.Hosts)), 0o644)
	case "8":
		res, err := f.runSwarm(exp.Fig8Spec())
		if err != nil {
			return err
		}
		var series []*metrics.Series
		for i, prog := range res.Progress {
			s := exp.ProgressSeries(fmt.Sprintf("client-%d", i), prog, res.Spec.Workload.FileSize)
			series = append(series, metrics.Downsample(s, 200))
		}
		vid, note := figVariant("8", f.rules, f.classifier)
		if err := writePlot(f.out, vid, "fig"+vid+".dat",
			"Evolution of the download on each client"+note,
			"time (s)", "percentage of the file transferred",
			[]string{"clients"}, false); err != nil {
			return err
		}
		return writeDat(f.out, "fig"+vid+".dat", series...)
	case "9":
		foldings := exp.Fig9Foldings
		if f.scale > 1 {
			foldings = []int{1, 4, 8}
		}
		base := f.swarmSpec(exp.Fig8Spec())
		var ds []*metrics.Series
		for _, folding := range foldings {
			sp := base
			sp.Folding = folding
			res, err := scenario.Run(&sp, scenario.Options{})
			if err != nil {
				return err
			}
			fmt.Printf("   folding %d:\n", folding)
			reportScenario(res)
			s := exp.TotalReceivedSeries(fmt.Sprintf("%d client(s) per physical node", folding), res.Progress)
			ds = append(ds, metrics.Downsample(s, 400))
		}
		vid, note := figVariant("9", f.rules, f.classifier)
		if err := writePlot(f.out, vid, "fig"+vid+".dat",
			"Total amount of data received by the nodes"+note,
			"time (s)", "data received (MB)",
			seriesNames(ds), true); err != nil {
			return err
		}
		return writeDat(f.out, "fig"+vid+".dat", ds...)
	case "10", "11":
		if f.fig10 == nil {
			res, err := f.runSwarm(exp.Fig10Spec())
			if err != nil {
				return err
			}
			f.fig10 = res
		}
		res := f.fig10
		if id == "10" {
			// The paper plots every 50th client.
			fileSize := res.Spec.Workload.FileSize
			var series []*metrics.Series
			for i := 49; i < len(res.Progress); i += 50 {
				s := exp.ProgressSeries(fmt.Sprintf("client-%d", i+1), res.Progress[i], fileSize)
				series = append(series, metrics.Downsample(s, 200))
			}
			if len(series) == 0 { // tiny scaled runs
				for i, prog := range res.Progress {
					series = append(series, exp.ProgressSeries(fmt.Sprintf("client-%d", i+1), prog, fileSize))
				}
			}
			vid, _ := figVariant("10", f.rules, f.classifier)
			return writeDat(f.out, "fig"+vid+".dat", series...)
		}
		vid, note := figVariant("11", f.rules, f.classifier)
		if err := writePlot(f.out, vid, "fig"+vid+".dat",
			"Clients having completed the download"+note,
			"time (s)", "number of clients",
			[]string{"number of clients"}, true); err != nil {
			return err
		}
		return writeDat(f.out, "fig"+vid+".dat", exp.CompletionSeries(res.Completions))
	case "dht":
		// E1: Chord's O(log N) routing — hops against ring size on LAN
		// links.
		sizes := []int{8, 16, 32, 64, 128}
		scaling, err := sweep(exp.Grid{Experiment: exp.ExpDHT, Peers: sizes,
			Classes: []topo.LinkClass{topo.LAN}, Seeds: []int64{f.seed}, Lookups: 200})
		if err != nil {
			return err
		}
		for _, c := range scaling {
			fmt.Printf("   %4d nodes: %.2f avg hops, %v avg latency\n",
				c.Cell.Peers, c.Snapshot.Values["avg-hops"], millis(c.Snapshot.Values["avg-latency-ms"]))
		}
		// E2: the same 32-node ring on each access link — the edge link,
		// not the overlay, sets the latency.
		locality, err := sweep(exp.Grid{Experiment: exp.ExpDHT, Peers: []int{32},
			Classes: []topo.LinkClass{topo.LAN, topo.Campus, topo.DSL, topo.Modem}, Seeds: []int64{f.seed}, Lookups: 200})
		if err != nil {
			return err
		}
		for _, c := range locality {
			fmt.Printf("   32 nodes on %-7s %.2f hops, %v avg latency\n",
				c.Cell.Class.Name, c.Snapshot.Values["avg-hops"], millis(c.Snapshot.Values["avg-latency-ms"]))
		}
		return writeDat(f.out, "dht.dat", curve("avg-lookup-hops", sizes, scaling, func(s *metrics.Snapshot) float64 {
			return s.Values["avg-hops"]
		}))
	case "churn":
		// E3: 24 DSL clients, half of them churning, pull 4 MiB — one
		// cell of the churn sweep family.
		g := exp.Grid{Experiment: exp.ExpChurn, Peers: []int{24}, FileSize: 4 << 20,
			Models: []netem.ModelKind{f.model}, Seeds: []int64{f.seed}}
		if f.rules > 0 {
			g.Rules, g.Classifiers = []int{f.rules}, []netem.Classifier{f.classifier}
		}
		cells, err := sweep(g)
		if err != nil {
			return err
		}
		c, snap := cells[0].Cell, cells[0].Snapshot
		churners := int(float64(c.Peers) * c.Churn)
		stableDone, churnDone := snap.Values["stable-done"], snap.Values["churn-done"]
		arrivals, departures := snap.Counters["arrivals"], snap.Counters["departures"]
		fmt.Printf("   stable clients: %.0f/%d done; churners: %.0f/%d done; %d arrivals, %d departures\n",
			stableDone, c.Peers-churners, churnDone, churners, arrivals, departures)
		cid, _ := figVariant("churn", f.rules, f.classifier)
		return os.WriteFile(filepath.Join(f.out, cid+".txt"),
			[]byte(fmt.Sprintf("stable %.0f/%d\nchurners %.0f/%d\narrivals %d\ndepartures %d\n",
				stableDone, c.Peers-churners, churnDone, churners, arrivals, departures)), 0o644)
	case "gossip":
		// E6: dissemination time against fanout on 64 LAN nodes. Fanout
		// is a grid-wide constant, so each value is a one-cell grid.
		fanouts := []int{1, 2, 3, 5, 8}
		var cells []exp.CellResult
		for _, fanout := range fanouts {
			one, err := sweep(exp.Grid{Experiment: exp.ExpGossip, Peers: []int{64},
				Classes: []topo.LinkClass{topo.LAN}, Seeds: []int64{f.seed}, Fanout: fanout})
			if err != nil {
				return err
			}
			c, s := one[0], one[0].Snapshot
			fmt.Printf("   n=%d fanout=%d coverage=%.0f%% t50=%v t100=%v pushes=%d\n",
				c.Cell.Peers, fanout, 100*s.Values["coverage"], seconds(s.Values["t50-s"]),
				seconds(s.Values["t100-s"]), s.Counters["pushes"])
			cells = append(cells, c)
		}
		return writeDat(f.out, "gossip.dat",
			curve("time-to-full-coverage-s", fanouts, cells, func(s *metrics.Snapshot) float64 { return s.Values["t100-s"] }),
			curve("push-messages", fanouts, cells, func(s *metrics.Snapshot) float64 { return float64(s.Counters["pushes"]) }))
	default:
		return fmt.Errorf("unknown figure id %q", id)
	}
}
