package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// runMain implements `p2plab run <scenario>`: execute one named corpus
// scenario (or a JSON spec file via -spec) and report its outcome.
func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "load the scenario from a JSON file instead of the corpus")
	seed := fs.Int64("seed", 0, "override the scenario's seed (0 keeps the spec value)")
	out := fs.String("out", "results", "output directory for the result CSV")
	dump := fs.Bool("dump", false, "print the resolved scenario as JSON and exit (editable with -spec)")
	traceTail := fs.Int("trace", 0, "print the last N trace events of the run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run to `file`")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: p2plab run [flags] <scenario-name>\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "scenarios: %v\n", scenario.Names())
	}
	// Accept the scenario name before or after the flags: the stdlib
	// parser stops at the first positional argument, so a leading name
	// is popped off before parsing.
	var name string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case name == "" && fs.NArg() == 1:
		name = fs.Arg(0)
	case name == "" && fs.NArg() > 1:
		return fmt.Errorf("run: unexpected arguments %v", fs.Args()[1:])
	case name != "" && fs.NArg() > 0:
		return fmt.Errorf("run: unexpected arguments %v", fs.Args())
	}
	if name != "" && *specPath != "" {
		return fmt.Errorf("run: pass a scenario name or -spec, not both")
	}

	var sp scenario.Spec
	switch {
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		loaded, err := scenario.Load(data)
		if err != nil {
			return err
		}
		sp = *loaded
	case name != "":
		var ok bool
		sp, ok = scenario.ByName(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %v)", name, scenario.Names())
		}
	default:
		fs.Usage()
		return fmt.Errorf("run: name a scenario or pass -spec")
	}

	if *dump {
		data, err := json.MarshalIndent(sp.WithDefaults(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}

	opt := scenario.Options{Seed: *seed}
	var lg *trace.Log
	if *traceTail > 0 {
		lg = trace.New(*traceTail)
		opt.Trace = lg
	}
	if *memProfile != "" {
		// Fine enough to attribute the tens-of-bytes objects of a
		// per-message hot path; the default samples one per 512 KiB.
		runtime.MemProfileRate = 4096
	}
	var cpuFile *os.File
	if *cpuProfile != "" {
		var err error
		if cpuFile, err = os.Create(*cpuProfile); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return err
		}
	}
	start := time.Now()
	fmt.Printf("== scenario %s ==\n", sp.Name)
	res, err := scenario.Run(&sp, opt)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if *memProfile != "" {
		if err := writeAllocProfile(*memProfile); err != nil {
			return err
		}
	}
	reportScenario(res)
	fmt.Printf("   wall time %v\n", time.Since(start).Round(time.Millisecond))
	if lg != nil {
		fmt.Println("-- trace tail --")
		if err := lg.Render(os.Stdout); err != nil {
			return err
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	csvPath := filepath.Join(*out, "scenario-"+res.Spec.Name+".csv")
	if err := writeFile(csvPath, func(w io.Writer) error {
		return metrics.WriteSnapshotsCSV(w, []*metrics.Snapshot{res.Snapshot})
	}); err != nil {
		return err
	}
	fmt.Printf("   wrote %s\n", csvPath)
	return nil
}

// writeAllocProfile writes the allocation profile: every allocation the
// process made, sampled at runtime.MemProfileRate, with what is still
// live as of the last GC.
func writeAllocProfile(path string) error {
	return writeFile(path, func(w io.Writer) error {
		runtime.GC()
		return pprof.Lookup("allocs").WriteTo(w, 0)
	})
}

// reportScenario prints the workload-appropriate summary of a run.
func reportScenario(res *scenario.Result) {
	sp, v := res.Spec, res.Snapshot.Values
	fmt.Printf("   %s workload, %s model, seed %d, ended at %v\n",
		sp.Workload.Kind, res.Model, sp.Seed, res.EndedAt)
	switch sp.Workload.Kind {
	case scenario.WorkloadSwarm, scenario.WorkloadChurnSwarm:
		fmt.Printf("   %d/%d clients done, last stable completion at %.0fs\n",
			res.Done, res.Total, v["last-completion-s"])
		if res.Arrivals > 0 {
			fmt.Printf("   churn: %d arrivals, %d departures\n", res.Arrivals, res.Departures)
		}
	case scenario.WorkloadSnapshot:
		fmt.Printf("   %d/%d clients done, last completion at %v, web seeds served %d bytes\n",
			res.Done, res.Total, seconds(v["last-completion-s"]),
			res.Snapshot.Counters["webseed-bytes"])
	case scenario.WorkloadDHT:
		fmt.Printf("   %d/%d lookups ok, %.2f avg hops, %v avg latency\n",
			res.Done, res.Total, v["avg-hops"], millis(v["avg-latency-ms"]))
	case scenario.WorkloadGossip:
		fmt.Printf("   coverage %.0f%%, full coverage at %v\n", 100*v["coverage"], seconds(v["t100-s"]))
	case scenario.WorkloadPing:
		fmt.Printf("   %d/%d pings answered, rtt avg %gms (min %gms, max %gms)\n",
			res.Done, res.Total, v["rtt-avg-ms"], v["rtt-min-ms"], v["rtt-max-ms"])
	}
	fmt.Printf("   kernel: %d events; net: %d sent, %d delivered, %d dropped, %d retransmits\n",
		res.Kernel.Events, res.Net.MessagesSent, res.Net.MessagesDelivered,
		res.Net.MessagesDropped, res.Net.Retransmits)
}

// listMain implements `p2plab list`: the scenario catalogue.
func listMain(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the corpus as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus := scenario.Corpus()
	sort.Slice(corpus, func(i, j int) bool { return corpus[i].Name < corpus[j].Name })
	if *asJSON {
		data, err := json.MarshalIndent(corpus, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Printf("%-30s %-12s %-6s %6s %9s  %s\n", "SCENARIO", "WORKLOAD", "MODEL", "NODES", "TIMELINE", "DESCRIPTION")
	for _, sp := range corpus {
		d := sp.WithDefaults()
		fmt.Printf("%-30s %-12s %-6s %6d %9d  %s\n",
			d.Name, d.Workload.Kind, d.Model, d.TotalNodes(), len(d.Timeline), d.Description)
	}
	return nil
}
