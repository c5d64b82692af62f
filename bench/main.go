// Command bench is this repository's end-to-end benchmark: five
// workloads that are whole runs of the emulator, five end-to-end
// metrics on each, and a separate traced run that attributes host time
// and work to the packages under internal/ — all measured from
// outside, through scenario.Load + scenario.Run and exp.Grid +
// exp.RunSweepProgress only. BENCHMARK.json at the repository root
// names the metrics; bench/README.md says what each is for.
//
//	go run ./bench                                 every workload, three repetitions each; table + bench/out/results.json
//	go run ./bench -workload swarm-pipe            one workload; the last line is a JSON result
//	go run ./bench -workload swarm-pipe -trace 1   the traced run: per-layer metrics
//	go run ./bench -aa -trace 1                    same-code check: two interleaved sets must agree
//
// Every repetition runs in a fresh child process of this binary
// (GOMAXPROCS=2, GOGC=100), so CPU time and peak RSS are the child's
// own and no workload warms another's heap. Workloads take turns
// (A B C, A B C, …) so slow machine drift spreads over repetitions
// instead of landing on one workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// childEnv marks a process as a repetition child; its job arrives on
// standard input.
const childEnv = "P2PLAB_BENCH_CHILD"

func main() {
	if os.Getenv(childEnv) != "" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := parentMain(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// The golden digests of the tree under test and the directory the
// results go to, both relative to the repository root, where the
// benchmark is run from.
const (
	goldenFile = "internal/scenario/testdata/golden_digests.json"
	outDir     = "bench/out"
)

// repSeconds is about what one repetition of a workload takes on the
// reference box (8–15 s). -seconds is turned into a number of
// repetitions with it, once, so that the count behind every reported
// value is fixed before anything is measured.
const repSeconds = 10

func parentMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	p := plan{golden: goldenFile}
	name := fs.String("workload", "", "run one workload (default: all five, taking turns) and print a JSON result as the last line")
	fs.Int64Var(&p.seed, "seed", 1, "the workload seed; the two swarm workloads take their kernel seed from it, the other three have fixed inputs")
	seconds := fs.Int("seconds", 3*repSeconds, "measuring time per workload: one repetition per 10 s, at least two")
	// A value, not a bare switch: the contract's command line is "--trace 0|1".
	fs.Func("trace", "`0|1`: 1 = the traced run; the last repetition carries a CPU profile and an obs registry, and per-layer metrics are printed", func(v string) error {
		var err error
		p.traced, err = strconv.ParseBool(v)
		return err
	})
	fs.BoolVar(&p.aa, "aa", false, "same-code check: run twice the repetitions, deal them into two interleaved sets and compare the sets against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	p.reps = max(2, *seconds/repSeconds)
	p.workloads = workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, workloadNames())
			return 2
		}
		p.workloads = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	p.exe = self

	res, err := measure(ctx, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := report(p, res)
	rep.print(os.Stdout)
	if err := rep.write(outDir); err != nil {
		// The files are a convenience; the numbers are already on
		// standard output, so a read-only tree does not fail the run.
		fmt.Fprintln(os.Stderr, "bench: not written:", err)
	}
	ok := rep.ok()
	if p.aa {
		ok = rep.printAA(os.Stdout) && ok
	}
	if *name != "" {
		// The contract's result line: always last on standard output.
		line, err := json.Marshal(rep.result(*name, p.traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		for _, w := range rep.Workloads {
			for _, problem := range w.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.Name, problem)
			}
		}
		return 1
	}
	return 0
}

// hostInfo is recorded so a noisy set can be explained; it is never
// gated.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func host() hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// writeJSON writes v, indented, to dir/name.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
