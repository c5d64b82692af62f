package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The workload files are the benchmark's own, not references into the
// scenario corpus, so a corpus edit cannot silently change what is
// measured.
//
//go:embed workloads/*.json
var workloadFiles embed.FS

// workload is one of the benchmark's whole-run inputs.
type workload struct {
	name string
	kind string
	data []byte // the workload file: a scenario spec, a sweepSpec or a corpusSpec
	// seeded workloads take their kernel seed from -seed; the others have
	// fixed inputs, the seeds in their workload files and in the corpus.
	// Only the two paper-scale swarms are seeded: with hundreds of peers
	// their cost is a stable statistic of the seed (across seeds 1–6
	// alloc_mb moves by 1.5 % and 0.8 %, events by 0.3 %). The
	// small-population workloads are chaotic in it — snapshot-capped takes
	// 9.1 s at seed 1 and 17.2 s at seed 2, the sweep allocates 594 to
	// 647 MB across six seeds, a corpus pass 409 to 488 MB — which is
	// several times the 3 % bound on alloc_mb before any code has
	// changed, and the golden digests exist for the corpus's own seeds
	// only.
	seeded bool
}

func mustRead(file string) []byte {
	data, err := workloadFiles.ReadFile("workloads/" + file)
	if err != nil {
		panic(err) // the file set is fixed at build time
	}
	return data
}

var workloads = []workload{
	{name: "swarm-pipe", kind: kindScenario, data: mustRead("swarm-pipe.json"), seeded: true},
	{name: "fig8-flow-windowed", kind: kindScenario, data: mustRead("fig8-flow-windowed.json"), seeded: true},
	{name: "snapshot-capped", kind: kindScenario, data: mustRead("snapshot-capped.json")},
	{name: "sweep-overlay", kind: kindSweep, data: mustRead("sweep-overlay.json")},
	{name: "corpus-golden", kind: kindCorpus, data: mustRead("corpus-golden.json")},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// job builds the repetition the child runs.
func (w workload) job(p plan, traced bool) job {
	j := job{Workload: w.name, Kind: w.kind, Data: w.data, Traced: traced, Golden: p.golden}
	if w.seeded {
		j.Seed = p.seed
	}
	return j
}

// plan is one invocation of the benchmark.
type plan struct {
	exe       string // this binary, re-run for every repetition
	workloads []workload
	seed      int64
	reps      int // repetitions per workload; twice as many under aa
	traced    bool
	aa        bool
	golden    string
}

// rep is one finished repetition: what the child reported plus what
// only its parent can see.
type rep struct {
	repResult
	Traced    bool    `json:"traced,omitempty"`
	CPUS      float64 `json:"cpu_s"`       // user+sys of the child (rusage)
	PeakRSSMB float64 `json:"peak_rss_mb"` // the child's ru_maxrss
	Load1     float64 `json:"host_loadavg1"`
	// Setups are the set-up times sampled with this repetition: those of
	// the children that ran the set-up alone just before it, and its own.
	Setups []float64 `json:"setup_samples_s"`
}

// childTimeout bounds one repetition; a child still running then is
// hung, and is killed so the benchmark can fail instead of hanging.
const childTimeout = 150 * time.Second

// runChild runs one job in a fresh process. The environment fixes
// what the Go runtime would otherwise take from the caller's shell.
func runChild(ctx context.Context, exe string, j job) (rep, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOMAXPROCS", "GOGC", "GODEBUG", "GOMEMLIMIT":
		default:
			cmd.Env = append(cmd.Env, kv)
		}
	}
	// 2 = nproc of the reference box; before go1.25 the runtime ignores
	// a container's CPU quota, so the default would vary by host.
	cmd.Env = append(cmd.Env, "GOMAXPROCS=2", "GOGC=100", childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	r := rep{Traced: j.Traced, Load1: loadavg1()}
	j.StartNs = time.Now().UnixNano()
	in, err := json.Marshal(j)
	if err != nil {
		return rep{}, err
	}
	cmd.Stdin = bytes.NewReader(in)
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s: child: %w: %s", j.Workload, err, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &r.repResult); err != nil {
		return rep{}, fmt.Errorf("%s: child result: %w", j.Workload, err)
	}
	ps := cmd.ProcessState
	r.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return r, nil
}

// loadavg1 samples the host's one-minute load average, 0 where
// /proc is not there.
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// measured is every repetition of an invocation, per workload in the
// order run, plus the probes of a traced run.
type measured struct {
	reps   map[string][]rep
	probes map[string]float64
}

// setupSamples is how many extra children per repetition run a
// workload's set-up and stop. Set-up takes 2 to 80 ms, most of it
// process start, so one sample per repetition says little; the
// reported setup_s is the median over these and the repetitions' own.
const setupSamples = 4

// measure runs the plan: workloads take turns, one repetition each per
// round. A traced run traces its last repetition instead of adding
// one, so that it takes as long as an untraced run. Under aa there are
// twice the rounds, dealt alternately into two sets by the report.
func measure(ctx context.Context, p plan) (*measured, error) {
	m := &measured{reps: map[string][]rep{}}
	if p.traced {
		r, err := runChild(ctx, p.exe, job{Workload: "probes", Kind: kindProbes})
		if err != nil {
			return nil, err
		}
		m.probes = r.Layer
	}
	rounds, sets := p.reps, 1
	if p.aa {
		rounds, sets = 2*p.reps, 2
	}
	for round := 0; round < rounds; round++ {
		traced := p.traced && round >= rounds-sets
		for _, w := range p.workloads {
			var setups []float64
			for i := 0; i < setupSamples; i++ {
				j := w.job(p, false)
				j.SetupOnly = true
				r, err := runChild(ctx, p.exe, j)
				if err != nil {
					return nil, err
				}
				setups = append(setups, r.SetupS)
			}
			r, err := runChild(ctx, p.exe, w.job(p, traced))
			if err != nil {
				return nil, err
			}
			if !traced {
				// A traced child starts its profile before its set-up.
				setups = append(setups, r.SetupS)
			}
			r.Setups = setups
			m.reps[w.name] = append(m.reps[w.name], r)
		}
	}
	return m, nil
}
